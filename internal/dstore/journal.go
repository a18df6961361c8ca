package dstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"sync"

	"pstorm/internal/hstore"
)

// META journal: each master's own durability log of the catalog images
// it has committed (as leader) or accepted from a peer (as standby), so
// a restarted master recovers epoch-consistent META instead of an empty
// table, and the slot holding the newest of them. It is never shipped:
// masters exchange only their latest image (election.go), framed by the
// same codec the file uses.
//
// Framing is the PST/WAL discipline (u32 payloadLen | u32 crc32c |
// payload, little endian): replay verifies every frame and stops at
// the first torn or corrupt one, truncating the file there so garbage
// is neither replayed nor appended after.
//
// Each record carries the *full post-mutation catalog image*, not a
// delta. META is small — tens of regions, a handful of servers — so a
// full image costs little, and it buys the recovery property the
// replay test pins down: any clean prefix of the journal decodes to
// exactly the catalog the master held when its last record was
// appended, bit for bit, with no replay-order logic to drift from the
// live mutation code. Checkpointing is then just compaction: when the
// journal grows past a threshold it is rewritten as one checkpoint
// record holding the current image.

// metaJournalFile is the journal's file name under MasterOptions.JournalDir.
const metaJournalFile = "meta.journal"

// journalFrameHeader is the per-record framing overhead: length + CRC.
const journalFrameHeader = 8

// journalCheckpointBytes is the compaction threshold: once the journal
// exceeds it, the next append rewrites it as a single checkpoint
// record.
const journalCheckpointBytes = 256 << 10

var journalCRCTable = crc32.MakeTable(crc32.Castagnoli)

func journalCRC(p []byte) uint32 { return crc32.Checksum(p, journalCRCTable) }

// journalServer is one catalog server entry as journaled: its peer
// identity plus liveness, the parts of member state that survive a
// master restart (heartbeat timestamps do not — a recovered master
// restamps them so nobody is declared dead for silence during the
// outage).
type journalServer struct {
	Peer  Peer `json:"peer"`
	Alive bool `json:"alive"`
}

// metaState is the catalog — the one representation of it: the
// leader's working catalog, a journal record, the image masters
// exchange, and (projected by meta) the META clients route by. It holds
// every field a restarted or promoted master needs to serve META and
// resume liveness, failover, and rebalancing where the image left off.
type metaState struct {
	MasterEpoch  int64                   `json:"master_epoch"`
	LeaderID     string                  `json:"leader_id"`
	Epoch        int64                   `json:"epoch"`
	NextRegionID int                     `json:"next_region_id"`
	Servers      []journalServer         `json:"servers"` // join order
	Tables       map[string][]RegionInfo `json:"tables"`
}

// clone deep-copies an image; nil clones to the empty catalog.
func (st *metaState) clone() metaState {
	if st == nil {
		return metaState{NextRegionID: 1, Tables: map[string][]RegionInfo{}}
	}
	out := *st
	out.NextRegionID = max(out.NextRegionID, 1)
	out.Servers = slices.Clone(st.Servers)
	out.Tables = make(map[string][]RegionInfo, len(st.Tables))
	for t, regions := range st.Tables {
		regions = slices.Clone(regions)
		for i := range regions {
			regions[i].Followers = slices.Clone(regions[i].Followers)
		}
		out.Tables[t] = regions
	}
	return out
}

// sameAs reports whether st and o (nil: no image) differ only in Epoch.
func (st *metaState) sameAs(o *metaState) bool {
	return o != nil && st.MasterEpoch == o.MasterEpoch && st.LeaderID == o.LeaderID &&
		st.NextRegionID == o.NextRegionID && slices.Equal(st.Servers, o.Servers) &&
		maps.EqualFunc(st.Tables, o.Tables, func(a, b []RegionInfo) bool {
			return slices.EqualFunc(a, b, func(x, y RegionInfo) bool {
				return x.ID == y.ID && x.Table == y.Table && x.StartKey == y.StartKey &&
					x.EndKey == y.EndKey && x.Primary == y.Primary && slices.Equal(x.Followers, y.Followers)
			})
		})
}

// meta projects an image onto the routing view clients cache.
func (st *metaState) meta() Meta {
	c := st.clone()
	out := Meta{Epoch: c.Epoch, Tables: c.Tables}
	for _, s := range c.Servers {
		out.Servers = append(out.Servers, s.Peer)
	}
	return out
}

// server returns id's catalog entry, nil if it never joined.
func (st *metaState) server(id string) *journalServer {
	for i := range st.Servers {
		if st.Servers[i].Peer.ID == id {
			return &st.Servers[i]
		}
	}
	return nil
}

// primaryCounts counts the regions each server is primary for.
func (st *metaState) primaryCounts() map[string]int {
	counts := make(map[string]int, len(st.Servers))
	for _, regions := range st.Tables {
		for _, g := range regions {
			counts[g.Primary]++
		}
	}
	return counts
}

// journalRecord is one framed journal payload: the mutation kind (for
// operators reading the log) and the catalog image after it.
type journalRecord struct {
	Kind  string    `json:"kind"`
	State metaState `json:"state"`
}

// metaJournal is the append-only record file and the slot holding the
// newest image this master has committed or accepted. It keeps no other
// copy of its contents: every record is a full image, so the only one
// that ever matters again is the last, read back once, at open. Without
// a directory the file is inert — appendLocked is a no-op. Its lock is
// a leaf.
type metaJournal struct {
	mu sync.Mutex
	// held is the newest image (nil before the first); immutable once
	// held.
	held *metaState

	fs   hstore.FS
	path string
	f    hstore.AppendFile
	// fileSize tracks the last known-good frame boundary on disk so a
	// failed append can be rolled back, as in the hstore WAL; broken
	// latches the journal read-only if even the rollback fails.
	fileSize int64
	broken   error
}

// openMetaJournal opens (or creates) the journal. With dir empty there
// is no file and nothing to recover. With a dir, the existing file is
// replayed: the last clean record's state is held for the master to
// recover and everything past the clean prefix is truncated away.
// discarded is nonzero only when replay stopped at a checksum or decode
// failure rather than a torn tail — the bytes cut then may have held
// valid, fresher records, and the caller must say so.
func openMetaJournal(fsys hstore.FS, dir string) (j *metaJournal, discarded int64, err error) {
	if dir == "" {
		return &metaJournal{}, 0, nil
	}
	if fsys == nil {
		fsys = hstore.OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(dir, metaJournalFile)
	raw, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, err
	}
	state, _, cleanLen, corrupt := replayMetaJournal(raw)
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	if int64(len(raw)) > cleanLen {
		// Torn or corrupt tail: cut it before re-arming appends, so a
		// valid record never lands after garbage replay would drop.
		if err := f.Truncate(cleanLen); err != nil {
			f.Close() //nolint:errcheck — the truncate failure is the interesting one
			return nil, 0, err
		}
	}
	if corrupt {
		discarded = int64(len(raw)) - cleanLen
	}
	return &metaJournal{held: state, fs: fsys, path: path, f: f, fileSize: cleanLen}, discarded, nil
}

// image returns the held image (nil before the first).
func (j *metaJournal) image() *metaState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.held
}

// errTornFrame reports that the bytes end inside a frame: a torn write,
// or a corrupt length field — the two are indistinguishable.
var errTornFrame = errors.New("dstore: torn journal frame")

// decodeFrame decodes the frame at the head of raw and returns its
// record and length. It is the one decoder for the journal file and the
// peer wire: a checksum mismatch, or a payload that checksums but is
// not a record, is a *hstore.CorruptionError — never silently accepted.
func decodeFrame(raw []byte) (rec journalRecord, size int, err error) {
	if len(raw) < journalFrameHeader {
		return rec, 0, errTornFrame
	}
	n := int(binary.LittleEndian.Uint32(raw))
	sum := binary.LittleEndian.Uint32(raw[4:])
	if n < 0 || n > len(raw)-journalFrameHeader {
		return rec, 0, errTornFrame
	}
	p := raw[journalFrameHeader : journalFrameHeader+n]
	if got := journalCRC(p); got != sum {
		return rec, 0, &hstore.CorruptionError{Detail: fmt.Sprintf("META frame checksum mismatch (got %#x want %#x)", got, sum)}
	}
	if err := json.Unmarshal(p, &rec); err != nil {
		return rec, 0, &hstore.CorruptionError{Detail: fmt.Sprintf("META frame payload: %v", err)}
	}
	return rec, journalFrameHeader + n, nil
}

// replayMetaJournal decodes the journal byte stream: the state of the
// last clean record (nil if none), how many records decoded, the clean
// prefix length, and whether the stop was a checksum/decode failure
// rather than a torn tail.
func replayMetaJournal(raw []byte) (last *metaState, records int, cleanLen int64, corrupt bool) {
	off := 0
	for off < len(raw) {
		rec, n, err := decodeFrame(raw[off:])
		if err != nil {
			corrupt = !errors.Is(err, errTornFrame)
			break
		}
		last = &rec.State
		records++
		off += n
	}
	return last, records, int64(off), corrupt
}

// frameRecord marshals and frames one record.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	framed := make([]byte, 0, journalFrameHeader+len(payload))
	var hdr [journalFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], journalCRC(payload))
	framed = append(framed, hdr[:]...)
	return append(framed, payload...), nil
}

// appendLocked logs one record — framed holds its frameRecord bytes,
// which the caller also ships to peers — compacting to a checkpoint when
// the journal has outgrown the threshold. It returns whether a
// checkpoint rewrite happened (for the master's checkpoint counter).
func (j *metaJournal) appendLocked(rec journalRecord, framed []byte) (checkpointed bool, err error) {
	if j.broken != nil {
		return false, j.broken
	}
	if j.f == nil {
		return false, nil
	}
	if j.fileSize > journalCheckpointBytes {
		// Compact: the record being appended already carries the full
		// catalog image, so the checkpoint IS this record, re-labeled.
		ck, err := frameRecord(journalRecord{Kind: "checkpoint", State: rec.State})
		if err != nil {
			return false, err
		}
		switch err := j.replaceFileLocked(ck); {
		case err == nil:
			return true, nil
		case j.broken != nil:
			return false, err
		}
		// The rewrite failed before its rename landed, so the on-disk
		// journal is untouched: fall through to a plain append — an
		// acked mutation must never be lost to a failed compaction. The
		// rewrite retries on the next append.
	}
	return false, j.writeLocked(framed)
}

// writeLocked writes one framed record to the file, fsyncing so an
// acked control-plane mutation survives power loss, not just a process
// crash.
func (j *metaJournal) writeLocked(framed []byte) error {
	_, err := j.f.Write(framed)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		// The append may have persisted a partial frame; roll the file
		// back to the last good boundary or latch the journal broken.
		if terr := j.f.Truncate(j.fileSize); terr != nil {
			j.broken = fmt.Errorf("dstore: META journal unwritable after failed rollback: %w", terr)
		}
		return err
	}
	j.fileSize += int64(len(framed))
	return nil
}

// replaceFileLocked replaces the durable journal file with data,
// crash-safely: data is written and synced to a temp file first, then
// renamed over the journal, so at every instant the path holds either
// the full old history or the complete replacement — never an empty or
// torn file. A failure before the rename leaves the old journal
// untouched (compaction falls back to a plain append); a failure after
// it latches the journal broken, since the append handle no longer
// reaches the live file.
func (j *metaJournal) replaceFileLocked(data []byte) error {
	tmp := j.path + ".tmp"
	tf, err := j.fs.OpenAppend(tmp)
	if err != nil {
		return err
	}
	// A stale temp from an earlier crashed rewrite may linger; start it
	// clean.
	err = tf.Truncate(0)
	if err == nil {
		_, err = tf.Write(data)
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := j.fs.Rename(tmp, j.path); err != nil {
		return err
	}
	old := j.f
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		j.f = nil
		j.broken = fmt.Errorf("dstore: META journal unreachable after rewrite rename: %w", err)
		old.Close() //nolint:errcheck — the reopen failure is the interesting one
		return j.broken
	}
	old.Close() //nolint:errcheck — the old inode is already unlinked
	j.f = f
	j.fileSize = int64(len(data))
	return nil
}

// size returns the journal file's length in bytes.
func (j *metaJournal) size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fileSize
}

// close releases the file handle.
func (j *metaJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
