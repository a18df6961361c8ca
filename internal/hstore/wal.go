package hstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
)

// Write-ahead log. Checkpoints (SaveTo) capture a point-in-time image;
// the WAL makes every individual Put/Delete/CreateTable durable in
// between, as a long-lived profile store needs: months of accumulated
// profiles should not depend on someone remembering to checkpoint. It
// is a Log (log.go) of one framed record per mutation in dir/wal.log;
// this file holds only the record codec and the replay switch.
//
// Payload layout (little endian):
//
//	u8  kind                 (1 = create table, 2 = cell)
//	u32 tableLen | table
//	-- kind 2 only --
//	u32 rowLen   | row
//	u32 colLen   | col       (top bit marks a tombstone)
//	i64 ts
//	u32 valLen   | val

const walFileName = "wal.log"

const (
	walCreateTable byte = 1
	walCell        byte = 2

	// tombstoneBit is the top bit of a cell record's colLen.
	tombstoneBit = 1 << 31
)

func appendU32String(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// walCreateFrame encodes a create-table record straight into its frame.
func walCreateFrame(table string) []byte {
	buf := make([]byte, FrameHeader, FrameHeader+5+len(table))
	buf = append(buf, walCreateTable)
	return sealFrame(appendU32String(buf, table))
}

// walCellFrame encodes a cell record straight into its frame.
func walCellFrame(table string, c Cell) []byte {
	buf := make([]byte, FrameHeader, FrameHeader+25+len(table)+len(c.Row)+len(c.Column)+len(c.Value))
	buf = append(buf, walCell)
	buf = appendU32String(buf, table)
	buf = appendU32String(buf, c.Row)
	colLen := uint32(len(c.Column))
	if c.Deleted {
		colLen |= tombstoneBit
	}
	buf = binary.LittleEndian.AppendUint32(buf, colLen)
	buf = append(buf, c.Column...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Ts))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Value)))
	return sealFrame(append(buf, c.Value...))
}

// decodeWALPayload parses a checksum-verified record payload. A parse
// failure here is not a torn tail — the CRC matched — so it reports a
// structurally corrupt record.
func decodeWALPayload(p []byte) (kind byte, table string, c Cell, err error) {
	bad := func(what string) (byte, string, Cell, error) {
		return 0, "", Cell{}, &CorruptionError{Path: walFileName, Detail: "malformed WAL record (" + what + ")"}
	}
	off := 0
	str := func() (string, bool) {
		if off+4 > len(p) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if n < 0 || off+n > len(p) {
			return "", false
		}
		s := string(p[off : off+n])
		off += n
		return s, true
	}
	if len(p) == 0 {
		return bad("empty")
	}
	kind = p[0]
	off = 1
	table, ok := str()
	if !ok {
		return bad("table")
	}
	if kind == walCreateTable {
		return kind, table, Cell{}, nil
	}
	row, ok := str()
	if !ok {
		return bad("row")
	}
	if off+4 > len(p) {
		return bad("column length")
	}
	rawCl := binary.LittleEndian.Uint32(p[off:])
	off += 4
	deleted := rawCl&tombstoneBit != 0
	cl := int(rawCl &^ uint32(tombstoneBit))
	if cl < 0 || off+cl+8+4 > len(p) {
		return bad("column")
	}
	col := string(p[off : off+cl])
	off += cl
	ts := int64(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	vl := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if vl < 0 || off+vl > len(p) {
		return bad("value")
	}
	val := append([]byte(nil), p[off:off+vl]...)
	return kind, table, Cell{Row: row, Column: col, Ts: ts, Value: val, Deleted: deleted}, nil
}

// replayWAL is the WAL's replay switch: it applies one verified record
// payload to the server.
func (s *Server) replayWAL(p []byte) error {
	kind, tbl, c, err := decodeWALPayload(p)
	if err != nil {
		return err
	}
	switch kind {
	case walCreateTable:
		// Idempotent on replay over a checkpoint that already has it.
		s.createTableQuiet(tbl)
	case walCell:
		t, err := s.table(tbl)
		if err != nil {
			return fmt.Errorf("hstore: WAL references unknown table %q", tbl)
		}
		s.mu.Lock()
		g := t.regionFor(c.Row)
		s.mu.Unlock()
		// Advance the logical clock past every replayed stamp so
		// post-restart writes cannot be shadowed by durable history.
		s.bumpClock(c.Ts)
		g.put(c)
	default:
		return fmt.Errorf("hstore: unknown WAL record kind %d", kind)
	}
	return nil
}

// createTableQuiet creates a table if absent (WAL replay helper).
func (s *Server) createTableQuiet(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return
	}
	s.nextID++
	s.tables[name] = &table{name: name, regions: []*region{newRegion(s.nextID, "", "", s.flushBytes(), s.stats)}}
}

// OpenDurable opens (or creates) a durable store in dir: the last
// checkpoint is loaded, the write-ahead log replayed over it (torn or
// corrupt tails truncated), and the WAL re-armed so every subsequent
// mutation is durable. SaveTo empties the log after a successful
// checkpoint.
func OpenDurable(dir string) (*Server, error) {
	return OpenDurableWith(dir, DurableOptions{})
}

// DurableOptions tunes OpenDurableWith.
type DurableOptions struct {
	// FS replaces the real filesystem (fault injection); nil = OS.
	FS FS
	// SyncWAL fsyncs every WAL record before a write is acknowledged.
	SyncWAL bool
}

// OpenDurableWith is OpenDurable with an injectable filesystem and WAL
// sync policy — the entry point the chaos harness drives.
func OpenDurableWith(dir string, opts DurableOptions) (*Server, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS
	}
	var s *Server
	if _, err := fsys.Stat(filepath.Join(dir, manifestName)); err != nil {
		s = NewServer()
	} else if s, err = loadServerFS(dir, fsys); err != nil {
		return nil, err
	}
	s.fs = fsys
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, discarded, err := OpenLog(fsys, filepath.Join(dir, walFileName), opts.SyncWAL, s.replayWAL)
	if err != nil {
		return nil, err
	}
	if discarded > 0 {
		// A corrupt record mid-log: everything behind it is untrusted
		// and dropped. Detection is the contract — the alternative is
		// replaying garbage as truth.
		s.stats.corruption()
	}
	s.wal = w
	return s, nil
}
