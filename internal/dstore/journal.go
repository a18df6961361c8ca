package dstore

import (
	"encoding/json"
	"fmt"
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
// masters exchange only their latest image (election.go), framed as the
// file frames it.
//
// The file is an hstore.Log, the same framed append log as a region
// server's WAL: replay verifies every frame, the torn or corrupt tail
// is truncated on open, a failed append is rolled back, and a
// checkpoint replaces the file atomically. This file holds only the
// record codec, the checkpoint rule and the held-image slot.
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

// journalCheckpointBytes is the compaction threshold: once the journal
// exceeds it, the next append rewrites it as a single checkpoint
// record.
const journalCheckpointBytes = 256 << 10

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
// resume liveness, failover, and moves where the image left off.
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
// a directory there is no file and appendLocked is a no-op. Its lock is
// a leaf but for the log's own.
type metaJournal struct {
	mu sync.Mutex
	// held is the newest image (nil before the first); immutable once
	// held.
	held *metaState
	log  *hstore.Log // nil without a directory
}

// openMetaJournal opens (or creates) the journal. With dir empty there
// is no file and nothing to recover. With a dir, the existing file is
// replayed: the last clean record's state is held for the master to
// recover. discarded is nonzero only when replay stopped at a checksum
// or decode failure rather than a torn tail — the bytes cut then may
// have held valid, fresher records, and the caller must say so.
func openMetaJournal(fsys hstore.FS, dir string) (j *metaJournal, discarded int64, err error) {
	j = &metaJournal{}
	if dir == "" {
		return j, 0, nil
	}
	if fsys == nil {
		fsys = hstore.OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	// Every append is fsynced, so an acked control-plane mutation
	// survives power loss, not just a process crash.
	j.log, discarded, err = hstore.OpenLog(fsys, filepath.Join(dir, metaJournalFile), true, func(p []byte) error {
		rec, err := decodeRecord(p)
		if err == nil {
			j.held = &rec.State
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return j, discarded, nil
}

// image returns the held image (nil before the first).
func (j *metaJournal) image() *metaState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.held
}

// frameRecord marshals and frames one record.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return hstore.Frame(payload), nil
}

// decodeRecord decodes one verified frame payload. A payload that
// checksums but is not a record is a *hstore.CorruptionError — never
// silently accepted.
func decodeRecord(p []byte) (rec journalRecord, err error) {
	if err := json.Unmarshal(p, &rec); err != nil {
		return rec, &hstore.CorruptionError{Detail: fmt.Sprintf("META frame payload: %v", err)}
	}
	return rec, nil
}

// decodeImage decodes a pushed image, which must be exactly one frame
// holding one record.
func decodeImage(frame []byte) (journalRecord, error) {
	p, n, err := hstore.DecodeFrame(frame)
	switch {
	case err != nil:
		return journalRecord{}, err
	case n != len(frame):
		return journalRecord{}, &hstore.CorruptionError{Detail: fmt.Sprintf("META image has %d trailing bytes", len(frame)-n)}
	}
	return decodeRecord(p)
}

// appendLocked logs one record — framed holds its frameRecord bytes,
// which the caller also ships to peers — compacting to a checkpoint when
// the journal has outgrown the threshold. It returns whether a
// checkpoint rewrite happened (for the master's checkpoint counter).
func (j *metaJournal) appendLocked(rec journalRecord, framed []byte) (checkpointed bool, err error) {
	if j.log == nil {
		return false, nil
	}
	if j.log.Size() > journalCheckpointBytes {
		// Compact: the record being appended already carries the full
		// catalog image, so the checkpoint IS this record, re-labeled.
		ck, err := frameRecord(journalRecord{Kind: "checkpoint", State: rec.State})
		if err != nil {
			return false, err
		}
		if j.log.Rewrite(ck) == nil {
			return true, nil
		}
		// A rewrite that failed before its rename left the journal
		// untouched: fall through to a plain append — an acked mutation
		// must never be lost to a failed compaction — and retry the
		// rewrite on the next append. One that failed after the rename
		// latched the log broken, and the append reports that.
	}
	return false, j.log.Append(framed)
}

// size returns the journal file's length in bytes.
func (j *metaJournal) size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return 0
	}
	return j.log.Size()
}

// close releases the file handle.
func (j *metaJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}
