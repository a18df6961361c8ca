package hstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func mustPut(t *testing.T, s *Server, table, row, col, val string) {
	t.Helper()
	if err := s.Put(table, row, col, []byte(val)); err != nil {
		t.Fatalf("put %s/%s: %v", row, col, err)
	}
}

func TestExportInstallRoundTrip(t *testing.T) {
	src := NewServer()
	if err := src.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, src, "t", "a", "c1", "v1")
	mustPut(t, src, "t", "b", "c1", "v2")
	mustPut(t, src, "t", "b", "c2", "old")
	mustPut(t, src, "t", "b", "c2", "new")
	if err := src.Delete("t", "a", "c1"); err != nil {
		t.Fatal(err)
	}
	src.Flush("t")
	mustPut(t, src, "t", "c", "c1", "v3")

	meta := src.Meta()
	if len(meta) != 1 {
		t.Fatalf("meta = %v", meta)
	}
	snap, err := src.ExportRegion("t", meta[0].RegionID)
	if err != nil {
		t.Fatal(err)
	}
	// Row "a" was fully tombstoned; only b(c1,c2) and c(c1) survive.
	if len(snap.Cells) != 3 {
		t.Fatalf("exported cells = %v", snap.Cells)
	}
	if snap.Bytes() <= 0 {
		t.Error("snapshot bytes should be positive")
	}

	dst := NewServer()
	if err := dst.InstallRegion(snap, true); err != nil {
		t.Fatal(err)
	}
	r, ok, err := dst.Get("t", "b")
	if err != nil || !ok {
		t.Fatalf("get b after install: %v %v", ok, err)
	}
	if string(r.Columns["c2"]) != "new" {
		t.Errorf("b/c2 = %q, want latest version", r.Columns["c2"])
	}
	if _, ok, _ := dst.Get("t", "a"); ok {
		t.Error("tombstoned row resurrected by install")
	}
	// Installing the same region again must fail (overlap).
	if err := dst.InstallRegion(snap, true); err == nil {
		t.Error("double install should fail")
	}
}

func TestNotServingOnGapsAndFences(t *testing.T) {
	s := NewServer()
	s.NoAutoSplit = true
	// Host only ["m", "t") of table "t" — a partial server, as under a
	// dstore master.
	snap := &RegionSnapshot{Table: "t", RegionID: 7, StartKey: "m", EndKey: "t"}
	if err := s.InstallRegion(snap, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "zzz", "c", []byte("v")); !IsNotServing(err) {
		t.Errorf("put outside hosted range: err = %v, want NotServing", err)
	}
	if _, _, err := s.Get("t", "a"); !IsNotServing(err) {
		t.Errorf("get outside hosted range: err = %v, want NotServing", err)
	}
	if _, err := s.Scan(context.Background(), "t", "", "", nil, 0); !IsNotServing(err) {
		t.Errorf("scan over uncovered range: err = %v, want NotServing", err)
	}
	mustPut(t, s, "t", "mm", "c", "v")
	if rows, err := s.Scan(context.Background(), "t", "m", "t", nil, 0); err != nil || len(rows) != 1 {
		t.Errorf("scan within hosted range: %v %v", rows, err)
	}

	// Fence the region: client traffic bounces, Apply still lands.
	if err := s.SetServing("t", 7, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "mm", "c", []byte("v2")); !IsNotServing(err) {
		t.Errorf("put on fenced region: err = %v, want NotServing", err)
	}
	if _, err := s.Scan(context.Background(), "t", "m", "t", nil, 0); !IsNotServing(err) {
		t.Errorf("scan on fenced region: err = %v, want NotServing", err)
	}
	if err := s.Apply("t", []Cell{{Row: "mq", Column: "c", Ts: 99, Value: []byte("r")}}); err != nil {
		t.Errorf("apply on fenced region: %v", err)
	}
	if err := s.SetServing("t", 7, true); err != nil {
		t.Fatal(err)
	}
	r, ok, err := s.Get("t", "mq")
	if err != nil || !ok || string(r.Columns["c"]) != "r" {
		t.Errorf("replicated cell not readable after unfence: %v %v %v", r, ok, err)
	}
	// The clock advanced past the applied ts: a local write now must
	// shadow the replicated cell, not be shadowed by it.
	mustPut(t, s, "t", "mq", "c", "newer")
	r, _, _ = s.Get("t", "mq")
	if string(r.Columns["c"]) != "newer" {
		t.Errorf("local write shadowed by replicated history: %q", r.Columns["c"])
	}
}

func TestDropRegion(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "t", "a", "c", "v")
	id := s.Meta()[0].RegionID
	if err := s.DropRegion("t", id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("t", "a"); !IsNotServing(err) {
		t.Errorf("get after drop: err = %v, want NotServing", err)
	}
	if err := s.DropRegion("t", id); err == nil {
		t.Error("double drop should fail")
	}
}

// TestConcurrentSplitRace races client puts and scans against
// size-triggered region splits (META changing under the operations) and
// asserts no acked write is lost. Run under -race in CI.
func TestConcurrentSplitRace(t *testing.T) {
	s := NewServer()
	s.MaxRegionBytes = 4 << 10 // split aggressively
	s.FlushBytes = 1 << 10
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	c := Connect(s)
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := fmt.Sprintf("row-%d-%04d", w, i)
				if err := c.Put(context.Background(), "t", row, "c", []byte(fmt.Sprintf("padpadpadpadpad-%d", i))); err != nil {
					t.Errorf("put %s: %v", row, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := c.Scan(context.Background(), "t", "", "", nil, 0); err != nil {
				t.Errorf("scan during splits: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	rows, err := c.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != writers*perWriter {
		t.Errorf("rows after concurrent split = %d, want %d (lost writes)", len(rows), writers*perWriter)
	}
	if len(s.Meta()) < 2 {
		t.Errorf("expected splits to have happened, META = %v", s.Meta())
	}
}
