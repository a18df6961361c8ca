package hstore

import (
	"context"
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
	if err := dst.InstallRegion(snap); err != nil {
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
	// Installing the same region again must fail: a leftover copy is
	// never silently reused.
	if err := dst.InstallRegion(snap); err == nil {
		t.Error("double install should fail")
	}
}

// TestBackfillRegion: a backfill merges into the copy already hosted —
// newest timestamp wins against what replication delivered meanwhile,
// and the exporter's clock carries over — and into nothing else.
func TestBackfillRegion(t *testing.T) {
	s := NewServer()
	shell := &RegionSnapshot{Table: "t", RegionID: 7, StartKey: "m", EndKey: "t"}
	fill := &RegionSnapshot{Table: "t", RegionID: 7, StartKey: "m", EndKey: "t", Clock: 50, Cells: []Cell{
		{Row: "ma", Column: "c", Ts: 10, Value: []byte("snap")},
		{Row: "mb", Column: "c", Ts: 10, Value: []byte("snap")},
	}}
	if err := s.BackfillRegion(fill); err == nil {
		t.Error("backfill of a region not hosted should fail")
	}
	if err := s.InstallRegion(shell); err != nil {
		t.Fatal(err)
	}
	// Replication delivers a newer version of mb before the backfill.
	if err := s.Apply("t", []Cell{{Row: "mb", Column: "c", Ts: 20, Value: []byte("chain")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.BackfillRegion(fill); err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string]string{"ma": "snap", "mb": "chain"} {
		if r, ok, err := s.Get("t", row); err != nil || !ok || string(r.Columns["c"]) != want {
			t.Errorf("%s = %q (ok=%v err=%v), want %q", row, r.Columns["c"], ok, err, want)
		}
	}
	if c, err := s.PutCell("t", "mc", "c", []byte("v")); err != nil || c.Ts <= fill.Clock {
		t.Errorf("stamp after backfill: ts=%d err=%v, want ts > exporter clock %d", c.Ts, err, fill.Clock)
	}
}

func TestNotServingOnGapsAndFences(t *testing.T) {
	s := NewServer()
	// Host only ["m", "t") of table "t" — a partial server, as under a
	// dstore master.
	snap := &RegionSnapshot{Table: "t", RegionID: 7, StartKey: "m", EndKey: "t"}
	if err := s.InstallRegion(snap); err != nil {
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
