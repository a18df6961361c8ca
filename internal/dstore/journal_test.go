package dstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"pstorm/internal/hstore"
)

// journalFixture drives a journaling master through a representative
// mutation history — joins, table creation, moves, a failover, a
// same-id rejoin — capturing the marshaled in-memory catalog after
// every mutation. The returned raw bytes are the on-disk journal; the
// states slice is what each journal record must replay to.
func journalFixture(t *testing.T) (dir string, raw []byte, liveStates [][]byte) {
	t.Helper()
	dir = t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	m, err := OpenMaster(reg, MasterOptions{
		Replication:   2,
		DefaultSplits: []string{"m"},
		Now:           clock.now,
		JournalDir:    dir,
	})
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	t.Cleanup(m.Close)

	var capture func()
	// The death round commits twice — the failover, then the recruit
	// that restores its replication — so its first state is captured
	// when the recruit's first Install reaches a server, after the
	// failover commit: the master sends it with no lock held.
	tapping := false
	reg.WrapConn = func(_ string, conn ServerConn) ServerConn {
		return installTap{conn, func() {
			if tapping {
				tapping = false
				capture()
			}
		}}
	}
	capture = func() {
		m.mu.Lock()
		st := m.journal.image()
		m.mu.Unlock()
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("marshal state: %v", err)
		}
		liveStates = append(liveStates, b)
	}

	var servers []*RegionServer
	for _, id := range []string{"rs-0", "rs-1", "rs-2"} {
		servers = append(servers, NewRegionServer(id, reg))
		if err := m.Join(Peer{ID: id}); err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
		capture()
	}
	if err := m.CreateTable("t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	capture()
	cl := NewClient(ConnectMaster(m), reg)
	for _, row := range []string{"a", "m", "z"} {
		if err := cl.Put(context.Background(), "t", row, "c", []byte(row)); err != nil {
			t.Fatalf("Put(%s): %v", row, err)
		}
	}
	// A flip move (region 1's follower becomes primary) and a failover.
	meta := m.Meta()
	g := meta.Tables["t"][0]
	if _, err := m.MoveRegion("t", g.ID, g.Followers[0]); err != nil {
		t.Fatalf("MoveRegion: %v", err)
	}
	capture()
	servers[0].Stop()
	clock.advance(10 * time.Second)
	for _, id := range []string{"rs-1", "rs-2"} {
		if err := m.Heartbeat(id); err != nil {
			t.Fatalf("Heartbeat(%s): %v", id, err)
		}
	}
	tapping = true
	if dead := m.CheckLiveness(clock.t); len(dead) != 1 {
		t.Fatalf("CheckLiveness = %v, want one death", dead)
	}
	if tapping {
		t.Fatal("the death round recruited no follower")
	}
	capture()
	// Same-id rejoin: a new incarnation registers over the old one.
	NewRegionServer("rs-1", reg)
	if err := m.Join(Peer{ID: "rs-1"}); err != nil {
		t.Fatalf("rejoin rs-1: %v", err)
	}
	capture()

	raw, err = os.ReadFile(filepath.Join(dir, metaJournalFile))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return dir, raw, liveStates
}

// installTap runs tap before every Install it carries.
type installTap struct {
	ServerConn
	tap func()
}

func (c installTap) Install(snap *hstore.RegionSnapshot, masterEpoch int64) error {
	c.tap()
	return c.ServerConn.Install(snap, masterEpoch)
}

// frameBounds decodes the frame layout of a clean journal: ends[i] is
// the byte offset just past record i.
func frameBounds(t *testing.T, raw []byte) (ends []int64, states []metaState) {
	t.Helper()
	off := int64(0)
	for off+hstore.FrameHeader <= int64(len(raw)) {
		n := int64(frameLen(raw, off))
		if off+hstore.FrameHeader+n > int64(len(raw)) {
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(raw[off+hstore.FrameHeader:off+hstore.FrameHeader+n], &rec); err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		off += hstore.FrameHeader + n
		ends = append(ends, off)
		states = append(states, rec.State)
	}
	if off != int64(len(raw)) {
		t.Fatalf("journal has trailing bytes: %d of %d framed", off, len(raw))
	}
	return ends, states
}

// replayMetaJournal decodes a journal byte stream: the state of the
// last clean record (nil if none), how many records decoded, the clean
// prefix length, and whether the stop was a checksum or decode failure
// rather than a torn tail.
func replayMetaJournal(raw []byte) (last *metaState, records int, cleanLen int64, corrupt bool) {
	cleanLen, err := hstore.ReplayLog(raw, func(p []byte) error {
		rec, err := decodeRecord(p)
		if err == nil {
			last, records = &rec.State, records+1
		}
		return err
	})
	return last, records, cleanLen, err != nil
}

func frameLen(raw []byte, off int64) uint32 {
	return uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24
}

// TestJournalReplayAnyPrefix is the recovery property the journal is
// built around: EVERY byte-length prefix of the on-disk journal —
// including torn mid-frame tails — replays to exactly the catalog the
// master held in memory when the last complete record of that prefix
// was appended, bit for bit, and the replayed history is epoch
// monotonic.
func TestJournalReplayAnyPrefix(t *testing.T) {
	_, raw, liveStates := journalFixture(t)
	ends, states := frameBounds(t, raw)
	if len(states) != len(liveStates) {
		t.Fatalf("journal has %d records, captured %d live states", len(states), len(liveStates))
	}

	// Bit-identical: each record's state re-marshals to the exact bytes
	// of the live catalog captured at append time.
	for i, st := range states {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("marshal record %d: %v", i, err)
		}
		if !bytes.Equal(b, liveStates[i]) {
			t.Fatalf("record %d state != live state at append:\n journal: %s\n live:    %s", i, b, liveStates[i])
		}
	}

	// Epoch monotonicity across the history.
	for i := 1; i < len(states); i++ {
		if states[i].Epoch < states[i-1].Epoch {
			t.Fatalf("META epoch regressed at record %d: %d -> %d", i, states[i-1].Epoch, states[i].Epoch)
		}
		if states[i].MasterEpoch < states[i-1].MasterEpoch {
			t.Fatalf("master epoch regressed at record %d: %d -> %d", i, states[i-1].MasterEpoch, states[i].MasterEpoch)
		}
	}

	// Every prefix replays to the last complete record it contains.
	for k := 0; k <= len(raw); k++ {
		last, records, cleanLen, corrupt := replayMetaJournal(raw[:k])
		if corrupt {
			t.Fatalf("prefix %d flagged corrupt; torn tails are not corruption", k)
		}
		want := 0
		for want < len(ends) && ends[want] <= int64(k) {
			want++
		}
		if records != want {
			t.Fatalf("prefix %d replayed %d records, want %d", k, records, want)
		}
		if want == 0 {
			if last != nil || cleanLen != 0 {
				t.Fatalf("prefix %d: want empty replay, got records=%d cleanLen=%d", k, records, cleanLen)
			}
			continue
		}
		if cleanLen != ends[want-1] {
			t.Fatalf("prefix %d cleanLen = %d, want %d", k, cleanLen, ends[want-1])
		}
		got, err := json.Marshal(*last)
		if err != nil {
			t.Fatalf("marshal replayed state: %v", err)
		}
		if !bytes.Equal(got, liveStates[want-1]) {
			t.Fatalf("prefix %d replays to wrong state (record %d)", k, want-1)
		}
	}
}

// TestJournalReplayDetectsCorruption flips one payload byte mid-journal
// and expects replay to stop exactly there, flag corruption, and keep
// every record before the flip — and a master opening that file to
// report what it discarded.
func TestJournalReplayDetectsCorruption(t *testing.T) {
	dir, raw, liveStates := journalFixture(t)
	ends, _ := frameBounds(t, raw)
	if len(ends) < 3 {
		t.Fatalf("fixture journal too short: %d records", len(ends))
	}
	mut := append([]byte(nil), raw...)
	mut[ends[1]+hstore.FrameHeader+2] ^= 0xff // inside record 2's payload
	last, records, cleanLen, corrupt := replayMetaJournal(mut)
	if !corrupt {
		t.Fatal("bit flip not flagged corrupt")
	}
	if records != 2 || cleanLen != ends[1] {
		t.Fatalf("replay after flip: records=%d cleanLen=%d, want 2/%d", records, cleanLen, ends[1])
	}
	if last == nil {
		t.Fatal("replay after flip lost the clean prefix")
	}

	// A master reopening that file recovers the pre-flip catalog — and
	// says that it cut valid-looking history, instead of passing the
	// checksum failure off as a torn tail.
	if err := os.WriteFile(filepath.Join(dir, metaJournalFile), mut, 0o644); err != nil {
		t.Fatalf("write corrupt journal: %v", err)
	}
	m, err := OpenMaster(NewRegistry(), MasterOptions{JournalDir: dir})
	if err != nil {
		t.Fatalf("OpenMaster over corrupt journal: %v", err)
	}
	defer m.Close()
	m.mu.Lock()
	got, _ := json.Marshal(m.journal.image())
	m.mu.Unlock()
	if !bytes.Equal(got, liveStates[1]) {
		t.Fatalf("recovered catalog != last record before the flip:\n got:  %s\n want: %s", got, liveStates[1])
	}
	var ev map[string]string
	for _, e := range m.Obs().EventLog().Since(0, 0) {
		if e.Type == "journal_corrupt" {
			ev = e.Fields
		}
	}
	wantClean, wantCut := strconv.FormatInt(ends[1], 10), strconv.FormatInt(int64(len(raw))-ends[1], 10)
	if ev["clean_bytes"] != wantClean || ev["discarded_bytes"] != wantCut {
		t.Fatalf("journal_corrupt event = %v, want clean_bytes=%s discarded_bytes=%s", ev, wantClean, wantCut)
	}
	if n := m.Obs().Snapshot().Counters["dstore_master_journal_corrupt_total"]; n != 1 {
		t.Fatalf("journal_corrupt_total = %d, want 1", n)
	}
}

// TestJournalRecoveryTruncatesTornTail restarts a master over a journal
// with a torn trailing frame: recovery must adopt the last complete
// record's catalog and cut the tail so future appends land clean.
func TestJournalRecoveryTruncatesTornTail(t *testing.T) {
	dir, raw, liveStates := journalFixture(t)
	ends, _ := frameBounds(t, raw)
	path := filepath.Join(dir, metaJournalFile)
	// Tear mid-way through the final record.
	torn := raw[:ends[len(ends)-2]+5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}

	reg := NewRegistry()
	for _, id := range []string{"rs-0", "rs-1", "rs-2"} {
		NewRegionServer(id, reg)
	}
	m, err := OpenMaster(reg, MasterOptions{
		Replication:   2,
		DefaultSplits: []string{"m"},
		JournalDir:    dir,
	})
	if err != nil {
		t.Fatalf("OpenMaster over torn journal: %v", err)
	}
	defer m.Close()

	m.mu.Lock()
	got := m.journal.image()
	m.mu.Unlock()
	var want metaState
	if err := json.Unmarshal(liveStates[len(liveStates)-2], &want); err != nil {
		t.Fatalf("unmarshal captured state: %v", err)
	}
	// The recovered catalog is the second-to-last state (the torn final
	// record never happened). Leader identity is the new process's own.
	if got.Epoch != want.Epoch || got.NextRegionID != want.NextRegionID ||
		!reflect.DeepEqual(got.Tables, want.Tables) || !reflect.DeepEqual(got.Servers, want.Servers) {
		t.Fatalf("recovered catalog != last clean record:\n got:  %+v\n want: %+v", got, want)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reread journal: %v", err)
	}
	if int64(len(onDisk)) != ends[len(ends)-2] {
		t.Fatalf("torn tail not truncated: file is %d bytes, want %d", len(onDisk), ends[len(ends)-2])
	}
	// Appends after recovery land on the clean boundary.
	if err := m.CreateTable("t2"); err != nil {
		t.Fatalf("CreateTable after recovery: %v", err)
	}
	onDisk, _ = os.ReadFile(path)
	if st, _, cleanLen, corrupt := replayMetaJournal(onDisk); corrupt || cleanLen != int64(len(onDisk)) || st == nil || st.Tables["t2"] == nil {
		t.Fatalf("journal dirty after post-recovery append: corrupt=%v clean=%d/%d", corrupt, cleanLen, len(onDisk))
	}
}

// TestJournalRestartContinuity restarts a master over its own clean
// journal: same catalog, region IDs keep counting from where they
// stopped, and new mutations journal cleanly.
func TestJournalRestartContinuity(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	m, err := OpenMaster(reg, MasterOptions{Replication: 2, DefaultSplits: []string{"m"}, JournalDir: dir})
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	for _, id := range []string{"rs-0", "rs-1"} {
		NewRegionServer(id, reg)
		if err := m.Join(Peer{ID: id}); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if err := m.CreateTable("t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	before := m.Meta()
	maxID := 0
	for _, g := range before.Tables["t"] {
		if g.ID > maxID {
			maxID = g.ID
		}
	}
	m.Stop()

	m2, err := OpenMaster(reg, MasterOptions{Replication: 2, DefaultSplits: []string{"m"}, JournalDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	after := m2.Meta()
	if !reflect.DeepEqual(before.Tables, after.Tables) || len(after.Servers) != 2 {
		t.Fatalf("restart lost catalog:\n before: %+v\n after:  %+v", before, after)
	}
	if err := m2.CreateTable("t2"); err != nil {
		t.Fatalf("CreateTable after restart: %v", err)
	}
	for _, g := range m2.Meta().Tables["t2"] {
		if g.ID <= maxID {
			t.Fatalf("region ID %d reused after restart (max before was %d)", g.ID, maxID)
		}
	}
}

// TestJournalCheckpointCompaction drives enough journaled mutations to
// cross the compaction threshold: the journal must shrink to a single
// checkpoint record, count the checkpoint, and still replay to the
// current catalog.
func TestJournalCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	m, err := OpenMaster(reg, MasterOptions{Replication: 2, DefaultSplits: []string{"m"}, JournalDir: dir})
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	defer m.Close()
	for _, id := range []string{"rs-0", "rs-1"} {
		NewRegionServer(id, reg)
		if err := m.Join(Peer{ID: id}); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if err := m.CreateTable("t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	g := m.Meta().Tables["t"][0]
	primary, follower := g.Primary, g.Followers[0]
	for i := 0; m.cJournalCheckpoints.Value() == 0; i++ {
		if i > 5000 {
			t.Fatal("no checkpoint after 5000 moves")
		}
		to := follower
		if i%2 == 1 {
			to = primary
		}
		if _, err := m.MoveRegion("t", g.ID, to); err != nil {
			t.Fatalf("MoveRegion %d: %v", i, err)
		}
	}
	if n := m.journal.size(); n > journalCheckpointBytes/4 {
		t.Fatalf("journal not compacted: %d bytes", n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, metaJournalFile))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	st, records, cleanLen, corrupt := replayMetaJournal(raw)
	if corrupt || cleanLen != int64(len(raw)) {
		t.Fatalf("compacted journal dirty: corrupt=%v clean=%d/%d", corrupt, cleanLen, len(raw))
	}
	if records < 1 || st == nil {
		t.Fatal("compacted journal empty")
	}
	if st.Epoch != m.Epoch() {
		t.Fatalf("compacted replay epoch %d != live %d", st.Epoch, m.Epoch())
	}
	if snap := m.Obs().Snapshot(); snap.Counters["dstore_master_journal_checkpoints_total"] == 0 {
		t.Fatal("checkpoint counter never incremented")
	}
}

// TestJournalFormatUnchanged replays a journal an earlier build wrote
// (testdata/journal, by journalFixture's script: three joins, a create,
// a flip move and a death) and compares the catalog it recovers with
// the one that build held when it appended the last record. The record
// format and its replay must not drift.
func TestJournalFormatUnchanged(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "journal", metaJournalFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "journal", "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	last, records, cleanLen, corrupt := replayMetaJournal(raw)
	if corrupt || cleanLen != int64(len(raw)) || records != 6 {
		t.Fatalf("replay: corrupt=%v clean=%d/%d records=%d, want a clean journal of 6", corrupt, cleanLen, len(raw), records)
	}
	catalog := func(st *metaState) []byte {
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	if got := catalog(last); !bytes.Equal(got, want) {
		t.Fatalf("replayed catalog differs:\n got:  %s\n want: %s", got, want)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaJournalFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMaster(NewRegistry(), MasterOptions{JournalDir: dir})
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	defer m.Close()
	if got := catalog(m.journal.image()); !bytes.Equal(got, want) {
		t.Fatalf("recovered catalog differs:\n got:  %s\n want: %s", got, want)
	}
	if meta := m.Meta(); meta.Epoch != last.Epoch || !reflect.DeepEqual(meta.Tables, last.Tables) {
		t.Fatalf("recovered META = epoch %d %v, want epoch %d %v", meta.Epoch, meta.Tables, last.Epoch, last.Tables)
	}
}

// FuzzReplayMetaJournal feeds arbitrary bytes to the one frame decoder
// through both of its doors. As a journal file: replay never panics,
// the clean prefix it reports lies inside the input, and replaying just
// that prefix is clean and lands on the same state. As a pushed image:
// a standby accepts the bytes only if they are exactly one clean frame,
// and a rejected push leaves the image it holds untouched. The seed
// corpus under testdata/fuzz (the fixture journal, a torn tail, a
// flipped CRC, a huge length field, a checksummed non-record, an empty
// file) runs as regression inputs in plain `go test`.
func FuzzReplayMetaJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		last, records, cleanLen, _ := replayMetaJournal(raw)
		if cleanLen < 0 || cleanLen > int64(len(raw)) {
			t.Fatalf("cleanLen %d outside input of %d bytes", cleanLen, len(raw))
		}
		again, records2, cleanLen2, corrupt2 := replayMetaJournal(raw[:cleanLen])
		if corrupt2 || cleanLen2 != cleanLen || records2 != records || !reflect.DeepEqual(again, last) {
			t.Fatalf("clean prefix replays differently: corrupt=%v clean=%d/%d records=%d/%d", corrupt2, cleanLen2, cleanLen, records2, records)
		}

		m := NewMaster(NewRegistry(), MasterOptions{ID: "m-1", Peers: []Peer{{ID: "m-0"}, {ID: "m-1"}}, Standby: true})
		defer m.Close()
		err := m.PushImage("m-0", MetaImage{Frame: raw})
		oneFrame := records == 1 && cleanLen == int64(len(raw))
		if (err == nil) != oneFrame {
			t.Fatalf("PushImage err = %v for input with %d clean records in %d of %d bytes", err, records, cleanLen, len(raw))
		}
		switch held := m.journal.image(); {
		case err != nil && held != nil:
			t.Fatalf("rejected push changed the held image to %+v", held)
		case held != nil && !reflect.DeepEqual(held, last):
			t.Fatalf("held image %+v is not the pushed record %+v", held, last)
		}
	})
}
