package hstore

import (
	"context"
	"fmt"
	"testing"
)

func TestDeleteColumnHidesOlderVersions(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	_ = s.Put("t", "r", "a", []byte("1"))
	_ = s.Put("t", "r", "b", []byte("2"))
	if err := s.Delete("t", "r", "a"); err != nil {
		t.Fatal(err)
	}
	r, ok, _ := s.Get("t", "r")
	if !ok {
		t.Fatal("row with a surviving column should still exist")
	}
	if _, present := r.Columns["a"]; present {
		t.Error("deleted column still visible")
	}
	if string(r.Columns["b"]) != "2" {
		t.Error("sibling column damaged by delete")
	}
	// A later write resurrects the column.
	_ = s.Put("t", "r", "a", []byte("3"))
	r, _, _ = s.Get("t", "r")
	if string(r.Columns["a"]) != "3" {
		t.Errorf("re-written column = %q", r.Columns["a"])
	}
}

func TestDeleteRowRemovesRow(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	for i := 0; i < 5; i++ {
		_ = s.Put("t", fmt.Sprintf("r%d", i), "a", []byte("x"))
		_ = s.Put("t", fmt.Sprintf("r%d", i), "b", []byte("y"))
	}
	if err := s.DeleteRow("t", "r2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("t", "r2"); ok {
		t.Error("deleted row still readable")
	}
	rows, _ := s.Scan(context.Background(), "t", "", "", nil, 0)
	if len(rows) != 4 {
		t.Errorf("scan sees %d rows, want 4", len(rows))
	}
	// Deleting a missing row is a no-op, not an error.
	if err := s.DeleteRow("t", "missing"); err != nil {
		t.Errorf("deleting a missing row: %v", err)
	}
}

func TestDeleteSurvivesFlushAndCompaction(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	_ = s.Put("t", "r", "a", []byte("old"))
	_ = s.Flush("t") // value is in an sstable now
	_ = s.Delete("t", "r", "a")
	_ = s.Flush("t") // tombstone in a newer sstable

	if _, ok, _ := s.Get("t", "r"); ok {
		t.Fatal("tombstone in newer segment should hide older value")
	}
	// Major compaction drops both the tombstone and the shadowed value.
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("t", "r"); ok {
		t.Error("deleted data reappeared after compaction")
	}
	counts, _ := s.SegmentCounts("t")
	if counts[0] > 1 {
		t.Errorf("compaction left %d segments", counts[0])
	}
}

func TestTombstoneSurvivesPersistence(t *testing.T) {
	dir := t.TempDir()
	s := NewServer()
	_ = s.CreateTable("t")
	_ = s.Put("t", "keep", "a", []byte("1"))
	_ = s.Put("t", "drop", "a", []byte("2"))
	_ = s.DeleteRow("t", "drop")
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := loadServerFS(dir, OSFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := back.Get("t", "drop"); ok {
		t.Error("deleted row resurrected by save/load")
	}
	if _, ok, _ := back.Get("t", "keep"); !ok {
		t.Error("live row lost by save/load")
	}
}

func TestTombstoneEncodeDecode(t *testing.T) {
	cells := []Cell{
		{Row: "a", Column: "c", Ts: 2, Deleted: true},
		{Row: "a", Column: "c", Ts: 1, Value: []byte("v")},
		{Row: "b", Column: "c", Ts: 1, Value: []byte("w")},
	}
	tbl := buildSSTable(cells)
	back, err := decodeSSTable(tbl.encode())
	if err != nil {
		t.Fatal(err)
	}
	var got []Cell
	back.scanRange("", "", func(c Cell) bool { got = append(got, c); return true })
	if len(got) != 3 {
		t.Fatalf("got %d cells", len(got))
	}
	if !got[0].Deleted || got[1].Deleted || got[2].Deleted {
		t.Errorf("tombstone flags lost: %+v", got)
	}
}
