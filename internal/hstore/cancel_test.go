package hstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// cancelAfter passes every row but pulls the plug on the scan's
// context after n matches — the shape of a caller that departs while
// the server is mid-merge.
type cancelAfter struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (f *cancelAfter) Matches(Row) bool {
	f.seen++
	if f.seen == f.n {
		f.cancel()
	}
	return true
}

func (f *cancelAfter) matchRun(cellRun) bool { return f.Matches(Row{}) }

func (f *cancelAfter) kind() string { return "test-cancel-after" }

// TestScanStopsMidRegionOnCancel: the per-row context check inside the
// region merge must abort the scan as soon as the caller is gone —
// the server must not pay for the rest of the range, and the
// cancellation must surface as ctx.Err(), not a partial result.
func TestScanStopsMidRegionOnCancel(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const total = 400
	for i := 0; i < total; i++ {
		if err := s.Put("t", fmt.Sprintf("row%04d", i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	const K = 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &cancelAfter{n: K, cancel: cancel}

	rows, err := s.Scan(ctx, "t", "", "", f, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Scan after mid-scan cancel: rows=%d err=%v, want context.Canceled", len(rows), err)
	}
	if rows != nil {
		t.Errorf("canceled scan leaked %d rows alongside its error", len(rows))
	}
	// The merge stops one ctx check after the canceling row; anything
	// close to the full range means the per-row check is gone.
	if scanned := s.Stats().RowsScanned; scanned > K+1 || scanned < K {
		t.Errorf("server scanned %d rows after a cancel at row %d, want ~%d", scanned, K, K)
	}

	// An already-canceled context must not scan anything at all.
	s.ResetStats()
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := s.Scan(dead, "t", "", "", nil, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Scan with pre-canceled ctx: %v, want context.Canceled", err)
	}
	if scanned := s.Stats().RowsScanned; scanned > 1 {
		t.Errorf("pre-canceled scan still visited %d rows", scanned)
	}
}
