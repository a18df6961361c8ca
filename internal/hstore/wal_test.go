package hstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestWALRecoversUncheckpointedWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put("t", fmt.Sprintf("r%02d", i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Delete("t", "r05", "c")
	// "Crash": no SaveTo, just reopen from the directory.
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := back.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("recovered %d rows, want 19 (one deleted)", len(rows))
	}
	if _, ok, _ := back.Get("t", "r05"); ok {
		t.Error("deleted row resurrected by WAL replay")
	}
	r, ok, _ := back.Get("t", "r07")
	if !ok || string(r.Columns["c"]) != "v7" {
		t.Errorf("recovered r07 = %v (ok=%v)", r, ok)
	}
}

func TestWALTruncatedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateTable("t")
	_ = s.Put("t", "a", "c", []byte("1"))
	walPath := filepath.Join(dir, walFileName)
	before, _ := os.Stat(walPath)
	if before.Size() == 0 {
		t.Fatal("WAL empty after writes")
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(walPath)
	if after.Size() != 0 {
		t.Errorf("WAL not truncated by checkpoint: %d bytes", after.Size())
	}
	// Post-checkpoint writes land in the fresh WAL and recover on top
	// of the checkpoint image.
	_ = s.Put("t", "b", "c", []byte("2"))
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := back.Get("t", "a"); !ok {
		t.Error("checkpointed row lost")
	}
	if _, ok, _ := back.Get("t", "b"); !ok {
		t.Error("post-checkpoint row lost")
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateTable("t")
	_ = s.Put("t", "a", "c", []byte("1"))
	_ = s.Put("t", "b", "c", []byte("2"))

	// Simulate a crash mid-append: chop bytes off the log tail.
	walPath := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("torn tail should not fail recovery: %v", err)
	}
	if _, ok, _ := back.Get("t", "a"); !ok {
		t.Error("intact record lost with the torn tail")
	}
	if _, ok, _ := back.Get("t", "b"); ok {
		t.Error("torn record partially applied")
	}
}

func TestOpenDurableFreshDirectory(t *testing.T) {
	s, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "r", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedWriteIsNotReplayed: a write the server refuses — into a
// quarantined region, or to a row no hosted region covers — never
// reaches the WAL, so a restart cannot bring back what was never acked.
func TestRefusedWriteIsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "t", "a", "c", "v")
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	id := s.Meta()[0].RegionID
	if !s.CorruptRegionData("t", id, 0) {
		t.Fatal("CorruptRegionData found no sstable to damage")
	}
	if _, _, err := s.Get("t", "a"); !IsCorruption(err) {
		t.Fatalf("get of a damaged region: err=%v, want CorruptionError", err)
	}
	if err := s.Put("t", "zz", "c", []byte("refused")); !IsCorruption(err) {
		t.Fatalf("put into a quarantined region: err=%v, want CorruptionError", err)
	}
	if err := s.DropRegion("t", id); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "yy", "c", []byte("uncovered")); !IsNotServing(err) {
		t.Fatalf("put to a row no region covers: err=%v, want NotServing", err)
	}

	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"zz", "yy"} {
		if r, ok, err := back.Get("t", row); ok || err != nil {
			t.Errorf("refused write %s came back from the WAL: %v ok=%v err=%v", row, r.Columns, ok, err)
		}
	}
	if _, ok, err := back.Get("t", "a"); !ok || err != nil {
		t.Errorf("acked write a lost on replay: ok=%v err=%v", ok, err)
	}
}

func TestWALPreservesVersionOrder(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenDurable(dir)
	_ = s.CreateTable("t")
	_ = s.Put("t", "r", "c", []byte("first"))
	_ = s.Put("t", "r", "c", []byte("second"))
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := back.Get("t", "r")
	if string(r.Columns["c"]) != "second" {
		t.Errorf("replay lost version order: %q", r.Columns["c"])
	}
}

// durablePutMaxAllocs bounds one WAL-backed Put: the one allocation a
// Put makes in memory, plus the record's frame, into which the record
// is encoded directly.
const durablePutMaxAllocs = 2

// TestDurablePutAllocs pins the allocations of one Put on a durable
// server, keys built beforehand, against the same Put in memory.
func TestDurablePutAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts drift under the race detector; CI runs this without -short")
	}
	const runs = 200
	keys := make([]string, runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("row%05d", i)
	}
	val := []byte("value-bytes")
	allocs := func(s *Server) float64 {
		if err := s.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if err := s.Put("t", keys[i], "c", val); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	durable, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, m := allocs(durable), allocs(NewServer())
	t.Logf("one Put: %.0f allocations durable, %.0f in memory", d, m)
	if d > durablePutMaxAllocs {
		t.Errorf("a durable Put allocated %.0f times, want <= %d (in memory: %.0f)", d, durablePutMaxAllocs, m)
	}
}
