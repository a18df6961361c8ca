package hstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
)

// Write-ahead log. Checkpoints (SaveTo) capture a point-in-time image;
// the WAL makes every individual Put/Delete durable in between, as a
// long-lived profile store needs: months of accumulated profiles should
// not depend on someone remembering to checkpoint. Every record is
// framed with its length and a CRC32C of its payload; replay verifies
// each frame and stops at the first torn or corrupt one, truncating the
// file there so garbage is neither replayed nor appended after. A crash
// mid-append loses at most the record being written; a flipped bit
// loses the records behind it but is detected, never read back as
// truth.
//
// Frame layout (little endian):
//
//	u32 payloadLen
//	u32 crc32c(payload)
//	payload
//
// Payload layout:
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

// walFrameHeader is the per-record framing overhead: length + CRC.
const walFrameHeader = 8

// wal is an append-only log file. size tracks the last known-good
// frame boundary so a failed (possibly partial) append can be rolled
// back — otherwise later records would land after garbage and be lost
// at replay, which stops at the first bad frame.
type wal struct {
	mu     sync.Mutex
	f      AppendFile
	size   int64
	sync   bool
	broken error
}

func openWAL(fsys FS, path string, syncEvery bool) (*wal, error) {
	var size int64
	if fi, err := fsys.Stat(path); err == nil {
		size = fi.Size()
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, size: size, sync: syncEvery}, nil
}

func appendU32String(buf []byte, s string) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	buf = append(buf, n[:]...)
	return append(buf, s...)
}

func (w *wal) logCreateTable(table string) error {
	buf := make([]byte, 0, 5+len(table))
	buf = append(buf, walCreateTable)
	buf = appendU32String(buf, table)
	return w.write(buf)
}

func (w *wal) logCell(table string, c Cell) error {
	buf := make([]byte, 0, 32+len(table)+len(c.Row)+len(c.Column)+len(c.Value))
	buf = append(buf, walCell)
	buf = appendU32String(buf, table)
	buf = appendU32String(buf, c.Row)
	var n [4]byte
	colLen := uint32(len(c.Column))
	if c.Deleted {
		colLen |= tombstoneBit
	}
	binary.LittleEndian.PutUint32(n[:], colLen)
	buf = append(buf, n[:]...)
	buf = append(buf, c.Column...)
	var ts [8]byte
	binary.LittleEndian.PutUint64(ts[:], uint64(c.Ts))
	buf = append(buf, ts[:]...)
	binary.LittleEndian.PutUint32(n[:], uint32(len(c.Value)))
	buf = append(buf, n[:]...)
	buf = append(buf, c.Value...)
	return w.write(buf)
}

// write frames the payload (length + CRC32C) and appends it, fsyncing
// when the log was opened with sync-every-record.
func (w *wal) write(payload []byte) error {
	framed := make([]byte, 0, walFrameHeader+len(payload))
	var hdr [walFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32c(payload))
	framed = append(framed, hdr[:]...)
	framed = append(framed, payload...)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if _, err := w.f.Write(framed); err != nil {
		// The append may have persisted a partial frame. Roll the file
		// back to the last good boundary; if even that fails the log's
		// tail state is unknown, so refuse further appends rather than
		// write records that replay would silently drop.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = fmt.Errorf("hstore: WAL unwritable after failed rollback: %w", terr)
		}
		return err
	}
	w.size += int64(len(framed))
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// truncate resets the log (after a checkpoint has captured its effects).
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.size = 0
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// walReplayer decodes CRC-framed records from a log byte stream. After
// the final next(), off is the clean prefix length — the boundary the
// recovery path truncates the file to — and corrupt reports whether the
// stop was a checksum mismatch rather than a torn tail.
type walReplayer struct {
	buf     []byte
	off     int
	corrupt bool
}

// nextFrame returns the next verified payload, or ok=false at a clean
// end, torn tail, or corrupt frame (r.off stays at the frame start).
func (r *walReplayer) nextFrame() (payload []byte, ok bool) {
	if r.off >= len(r.buf) {
		return nil, false
	}
	if r.off+walFrameHeader > len(r.buf) {
		return nil, false // torn frame header
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.off:]))
	sum := binary.LittleEndian.Uint32(r.buf[r.off+4:])
	if n < 0 || r.off+walFrameHeader+n > len(r.buf) {
		return nil, false // torn payload (or corrupt length — indistinguishable)
	}
	p := r.buf[r.off+walFrameHeader : r.off+walFrameHeader+n]
	if crc32c(p) != sum {
		r.corrupt = true
		return nil, false
	}
	r.off += walFrameHeader + n
	return p, true
}

// next decodes one record; done reports the end of the recoverable
// prefix (clean end, torn tail, or corrupt frame).
func (r *walReplayer) next() (kind byte, table string, c Cell, done bool, err error) {
	start := r.off
	p, ok := r.nextFrame()
	if !ok {
		return 0, "", Cell{}, true, nil
	}
	kind, table, c, err = decodeWALPayload(p)
	if err != nil {
		// Keep the malformed frame out of the clean prefix.
		r.off = start
	}
	return kind, table, c, false, err
}

// decodeWALPayload parses a checksum-verified record payload. A parse
// failure here is not a torn tail — the CRC matched — so it reports a
// structurally corrupt record.
func decodeWALPayload(p []byte) (kind byte, table string, c Cell, err error) {
	bad := func(what string) (byte, string, Cell, error) {
		return 0, "", Cell{}, fmt.Errorf("hstore: malformed WAL record (%s)", what)
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

// EnableWAL makes every subsequent Put/Delete/CreateTable durable by
// appending it to dir/wal.log. Call after loading a checkpoint (or on a
// fresh server); OpenDurable bundles the whole recovery sequence. With
// Server.WALSync set, every record is fsynced before the write is
// acknowledged.
func (s *Server) EnableWAL(dir string) error {
	fsys := s.fsys()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := openWAL(fsys, filepath.Join(dir, walFileName), s.WALSync)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
	return nil
}

// replayWAL applies dir/wal.log (if present) to the server and returns
// the clean prefix length — everything past it is a torn tail or failed
// its checksum and must be truncated before the log is re-armed.
func (s *Server) replayWAL(dir string) (cleanLen int64, err error) {
	raw, readErr := s.fsys().ReadFile(filepath.Join(dir, walFileName))
	if readErr != nil {
		if isNotExist(readErr) {
			return 0, nil
		}
		return 0, readErr
	}
	r := &walReplayer{buf: raw}
	for {
		kind, tbl, c, done, recErr := r.next()
		if recErr != nil {
			s.stats.corruption()
			return int64(r.off), &CorruptionError{
				Path:   filepath.Join(dir, walFileName),
				Detail: recErr.Error(),
			}
		}
		if done {
			if r.corrupt {
				// A checksum mismatch mid-log: everything behind it is
				// untrusted and dropped. Detection is the contract —
				// the alternative is replaying garbage as truth.
				s.stats.corruption()
			}
			return int64(r.off), nil
		}
		switch kind {
		case walCreateTable:
			// Idempotent on replay over a checkpoint that already has it.
			_ = s.createTableQuiet(tbl)
		case walCell:
			t, err := s.table(tbl)
			if err != nil {
				return int64(r.off), fmt.Errorf("hstore: WAL references unknown table %q", tbl)
			}
			s.mu.Lock()
			g := t.regionFor(c.Row)
			s.mu.Unlock()
			// Advance the logical clock past every replayed stamp so
			// post-restart writes cannot be shadowed by durable history.
			s.bumpClock(c.Ts)
			g.put(c)
		default:
			return int64(r.off), fmt.Errorf("hstore: unknown WAL record kind %d", kind)
		}
	}
}

// createTableQuiet creates a table if absent (WAL replay helper).
func (s *Server) createTableQuiet(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil
	}
	s.nextID++
	s.tables[name] = &table{name: name, regions: []*region{newRegion(s.nextID, "", "", s.flushBytes(), s.stats)}}
	return nil
}

// truncateWALTail cuts dir/wal.log to cleanLen, discarding a torn or
// corrupt tail found during replay.
func (s *Server) truncateWALTail(dir string, cleanLen int64) error {
	fsys := s.fsys()
	path := filepath.Join(dir, walFileName)
	fi, err := fsys.Stat(path)
	if err != nil {
		if isNotExist(err) {
			return nil
		}
		return err
	}
	if fi.Size() <= cleanLen {
		return nil
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return err
	}
	if err := f.Truncate(cleanLen); err != nil {
		closeErr := f.Close()
		_ = closeErr // the truncate failure is the interesting one
		return err
	}
	return f.Close()
}

// OpenDurable opens (or creates) a durable store in dir: the last
// checkpoint is loaded, the write-ahead log replayed over it (torn or
// corrupt tails truncated), and the WAL re-armed so every subsequent
// mutation is durable. SaveTo truncates the log after a successful
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
	if _, err := fsys.Stat(filepath.Join(dir, manifestName)); err == nil {
		s, err = loadServerFS(dir, fsys)
		if err != nil {
			return nil, err
		}
	} else {
		s = NewServer()
		s.FS = fsys
	}
	s.WALSync = opts.SyncWAL
	cleanLen, err := s.replayWAL(dir)
	if err != nil && !IsCorruption(err) {
		return nil, err
	}
	// Cut the unrecoverable tail (torn or corrupt) so the re-armed log
	// never appends valid records after garbage.
	if terr := s.truncateWALTail(dir, cleanLen); terr != nil {
		return nil, terr
	}
	if err := s.EnableWAL(dir); err != nil {
		return nil, err
	}
	return s, nil
}
