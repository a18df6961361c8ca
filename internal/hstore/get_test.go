package hstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// A point read merges only the sstables whose bloom filter admits the
// row: with the row in one of three segments, every segment is probed
// once and the other two are skipped.
func TestGetOpensOnlyBloomAdmittedSSTables(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"a", "b", "c"} {
		for i := 0; i < 10; i++ {
			mustPut(t, s, "t", fmt.Sprintf("%s%02d", prefix, i), "c", prefix)
		}
		if err := s.Flush("t"); err != nil {
			t.Fatal(err)
		}
	}
	if counts, err := s.SegmentCounts("t"); err != nil || counts[0] != 3 {
		t.Fatalf("setup: segment counts %v (err %v), want 3 sstables and an empty memstore", counts, err)
	}
	before := s.Obs().Snapshot().Counters
	r, ok, err := s.Get("t", "b05")
	if err != nil || !ok || string(r.Columns["c"]) != "b" {
		t.Fatalf("Get b05 = %v (ok=%v err=%v)", r, ok, err)
	}
	after := s.Obs().Snapshot().Counters
	checks := after["hstore_bloom_checks_total"] - before["hstore_bloom_checks_total"]
	skips := after["hstore_bloom_skips_total"] - before["hstore_bloom_skips_total"]
	if checks != 3 || skips != 2 {
		t.Errorf("bloom probes = %v, skips = %v; want 3 and 2", checks, skips)
	}
}

// The bloom filters are tested under the lock that snapshots the
// memstore and the sstable list. A read racing a flush of the very row
// it wants must still find it: tested before the snapshot, the filtered
// list would leave out the segment the flush just built.
func TestGetDuringFlushFindsRow(t *testing.T) {
	s := NewServer()
	s.NoAutoSplit = true
	s.FlushBytes = 512 // a flush every few puts
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	var written atomic.Int64 // rows [0, written) are acked
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			if err := s.Put("t", fmt.Sprintf("r%05d", i), "c", []byte("v")); err != nil {
				t.Errorf("put r%05d: %v", i, err)
				return
			}
			written.Store(int64(i + 1))
			if i%3 == 0 {
				if err := s.Flush("t"); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()
	for n := written.Load(); n < rows; n = written.Load() {
		if n == 0 {
			continue
		}
		key := fmt.Sprintf("r%05d", n-1) // the newest acked row, likely mid-flush
		if _, ok, err := s.Get("t", key); err != nil || !ok {
			t.Errorf("Get %s after its put was acked: ok=%v err=%v", key, ok, err)
			break
		}
	}
	wg.Wait()
}
