package hstore

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

func TestCompactionBoundsReadAmplification(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	// Many small flushes create many segments.
	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			_ = s.Put("t", fmt.Sprintf("r%02d", i), "c", []byte(fmt.Sprintf("v%d-%d", round, i)))
		}
		_ = s.Flush("t")
	}
	before, err := s.SegmentCounts("t")
	if err != nil {
		t.Fatal(err)
	}
	// Size-tiered compaction already bounds the segment count in the
	// background, but six flushes still leave more than one segment.
	if before[0] < 2 {
		t.Fatalf("setup failed: only %d segments before compaction", before[0])
	}
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	after, _ := s.SegmentCounts("t")
	if after[0] != 1 {
		t.Errorf("after compaction %d segments, want 1", after[0])
	}
	// Latest versions survive.
	for i := 0; i < 10; i++ {
		r, ok, _ := s.Get("t", fmt.Sprintf("r%02d", i))
		if !ok || string(r.Columns["c"]) != fmt.Sprintf("v5-%d", i) {
			t.Errorf("row %d after compaction = %v (ok=%v)", i, r, ok)
		}
	}
	rows, _ := s.Scan(context.Background(), "t", "", "", nil, 0)
	if len(rows) != 10 {
		t.Errorf("scan after compaction = %d rows, want 10", len(rows))
	}
}

func TestCompactionPreservesMultiColumnRows(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	_ = s.Put("t", "r", "a", []byte("1"))
	_ = s.Flush("t")
	_ = s.Put("t", "r", "b", []byte("2"))
	_ = s.Flush("t")
	_ = s.Put("t", "r", "a", []byte("3")) // newer version of a, still in memstore
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	r, ok, _ := s.Get("t", "r")
	if !ok || string(r.Columns["a"]) != "3" || string(r.Columns["b"]) != "2" {
		t.Errorf("row after compaction = %v", r)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewServer()
	s.FlushBytes = 2 << 10
	// Three regions, as a dstore master's catalog would lay them out.
	bounds := []string{"", "row0040", "row0080", ""}
	for i := 0; i < 3; i++ {
		snap := &RegionSnapshot{Table: "profiles", RegionID: i + 1, StartKey: bounds[i], EndKey: bounds[i+1]}
		if err := s.InstallRegion(snap); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.CreateTable("other")
	val := make([]byte, 200)
	for i := 0; i < 120; i++ {
		_ = s.Put("profiles", fmt.Sprintf("row%04d", i), "data", append([]byte(fmt.Sprintf("%04d|", i)), val...))
	}
	_ = s.Put("other", "only", "c", []byte("x"))

	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := loadServerFS(dir, OSFS)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Tables(); len(got) != 2 {
		t.Fatalf("tables after load = %v", got)
	}
	rows, err := back.Scan(context.Background(), "profiles", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 120 {
		t.Fatalf("rows after load = %d, want 120", len(rows))
	}
	for i := 0; i < 120; i += 17 {
		key := fmt.Sprintf("row%04d", i)
		r, ok, _ := back.Get("profiles", key)
		if !ok {
			t.Fatalf("row %s missing after reload", key)
		}
		if want := fmt.Sprintf("%04d|", i); string(r.Columns["data"][:5]) != want {
			t.Errorf("row %s data prefix = %q, want %q", key, r.Columns["data"][:5], want)
		}
	}
	// Region structure survives.
	if got, want := back.Meta(), s.Meta(); !reflect.DeepEqual(got, want) {
		t.Errorf("META after load = %v, want %v", got, want)
	}
	// The reopened server keeps working.
	if err := back.Put("profiles", "zzz-new", "data", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := back.Get("profiles", "zzz-new"); !ok {
		t.Error("write after reload lost")
	}
}

func TestSaveEmptyServerAndTables(t *testing.T) {
	dir := t.TempDir()
	s := NewServer()
	_ = s.CreateTable("empty")
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := loadServerFS(dir, OSFS)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := back.Scan(context.Background(), "empty", "", "", nil, 0)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty table after reload: %v, %v", rows, err)
	}
	// And it accepts writes.
	if err := back.Put("empty", "a", "b", []byte("c")); err != nil {
		t.Fatal(err)
	}
}

func TestLoadServerErrors(t *testing.T) {
	if _, err := loadServerFS(t.TempDir(), OSFS); err == nil {
		t.Error("loading an empty directory should fail")
	}
}
