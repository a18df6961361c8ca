package hstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
)

func TestServerTableLifecycle(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	if got := s.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Tables() = %v", got)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err == nil {
		t.Error("dropping a missing table should fail")
	}
	if _, _, err := s.Get("t", "row"); err == nil {
		t.Error("Get on dropped table should fail")
	}
}

func TestServerPutGetScan(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("row%02d", i)
		if err := s.Put("t", key, "a", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("t", key, "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	r, ok, err := s.Get("t", "row05")
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if string(r.Columns["a"]) != "5" || string(r.Columns["b"]) != "x" {
		t.Errorf("row05 = %v", r)
	}
	if _, ok, _ := s.Get("t", "missing"); ok {
		t.Error("Get found a missing row")
	}
	rows, err := s.Scan(context.Background(), "t", "row05", "row10", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Key != "row05" || rows[4].Key != "row09" {
		t.Errorf("scan returned %d rows starting %q", len(rows), rows[0].Key)
	}
}

func TestServerLatestVersionWins(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	_ = s.Put("t", "r", "c", []byte("first"))
	_ = s.Put("t", "r", "c", []byte("second"))
	r, _, _ := s.Get("t", "r")
	if string(r.Columns["c"]) != "second" {
		t.Errorf("got %q, want the later write", r.Columns["c"])
	}
	// Also after a flush (versions span memstore + sstable).
	_ = s.Flush("t")
	_ = s.Put("t", "r", "c", []byte("third"))
	r, _, _ = s.Get("t", "r")
	if string(r.Columns["c"]) != "third" {
		t.Errorf("after flush got %q, want third", r.Columns["c"])
	}
}

func TestServerScanAcrossFlushes(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	for i := 0; i < 10; i++ {
		_ = s.Put("t", fmt.Sprintf("r%02d", i), "c", []byte("mem1"))
	}
	_ = s.Flush("t")
	for i := 10; i < 20; i++ {
		_ = s.Put("t", fmt.Sprintf("r%02d", i), "c", []byte("mem2"))
	}
	rows, err := s.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Errorf("scan after flush = %d rows, want 20", len(rows))
	}
}

func TestServerScanWithFilterAndLimit(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	for i := 0; i < 30; i++ {
		_ = s.Put("t", fmt.Sprintf("r%02d", i), "parity", []byte(fmt.Sprintf("%d", i%2)))
	}
	f := &ColumnEqualsFilter{Column: "parity", Value: "0"}
	rows, err := s.Scan(context.Background(), "t", "", "", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Errorf("filtered scan = %d rows, want 15", len(rows))
	}
	rows, _ = s.Scan(context.Background(), "t", "", "", f, 4)
	if len(rows) != 4 {
		t.Errorf("limited scan = %d rows, want 4", len(rows))
	}
}

func TestServerRegionSplit(t *testing.T) {
	s := NewServer()
	s.MaxRegionBytes = 4 << 10 // force splits quickly
	s.FlushBytes = 1 << 10
	_ = s.CreateTable("t")
	val := make([]byte, 128)
	for i := 0; i < 200; i++ {
		if err := s.Put("t", fmt.Sprintf("r%04d", i), "c", val); err != nil {
			t.Fatal(err)
		}
	}
	meta := s.Meta()
	if len(meta) < 2 {
		t.Fatalf("expected region splits, META has %d entries", len(meta))
	}
	// Regions must tile the key space: start "" to end "".
	if meta[0].StartKey != "" || meta[len(meta)-1].EndKey != "" {
		t.Errorf("regions do not cover key space: %+v", meta)
	}
	for i := 1; i < len(meta); i++ {
		if meta[i].StartKey != meta[i-1].EndKey {
			t.Errorf("region gap: %q -> %q", meta[i-1].EndKey, meta[i].StartKey)
		}
	}
	// All rows still readable after splits.
	rows, err := s.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Errorf("after splits scan = %d rows, want 200", len(rows))
	}
	for i := 0; i < 200; i += 37 {
		if _, ok, _ := s.Get("t", fmt.Sprintf("r%04d", i)); !ok {
			t.Errorf("row r%04d lost after split", i)
		}
	}
}

func TestServerTransferStats(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	for i := 0; i < 10; i++ {
		_ = s.Put("t", fmt.Sprintf("r%d", i), "c", []byte("0123456789"))
	}
	s.ResetStats()
	_, _ = s.Scan(context.Background(), "t", "", "", &ColumnEqualsFilter{Column: "c", Value: "0123456789"}, 0)
	st := s.Stats()
	if st.RowsScanned != 10 || st.RowsReturned != 10 {
		t.Errorf("stats = %+v", st)
	}
	s.ResetStats()
	_, _ = s.Scan(context.Background(), "t", "", "", &ColumnEqualsFilter{Column: "c", Value: "nope"}, 0)
	st = s.Stats()
	if st.RowsScanned != 10 || st.RowsReturned != 0 || st.BytesReturned != 0 {
		t.Errorf("filtered-out scan stats = %+v", st)
	}
}

func TestServerConcurrentPuts(t *testing.T) {
	s := NewServer()
	_ = s.CreateTable("t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Put("t", fmt.Sprintf("g%d-r%03d", g, i), "c", []byte("v"))
			}
		}(g)
	}
	wg.Wait()
	rows, err := s.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 800 {
		t.Errorf("concurrent puts: %d rows, want 800", len(rows))
	}
}

func TestClientScanGetAndErrors(t *testing.T) {
	ctx := context.Background()
	c := Connect(NewServer())
	if err := c.CreateTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := c.Put(ctx, "t", fmt.Sprintf("r%02d", i), "v", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.Scan(ctx, "t", "", "", &PrefixFilter{Prefix: "r1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("prefix scan returned %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if want := fmt.Sprintf("r1%d", i); r.Key != want {
			t.Errorf("row %d: %q, want %q", i, r.Key, want)
		}
	}
	one, ok, err := c.Get(ctx, "t", "r07")
	if err != nil || !ok || string(one.Columns["v"]) != "7" {
		t.Errorf("Get r07 = (%v,%v,%v), want v=7", one, ok, err)
	}

	if err := c.CreateTable(ctx, "t"); err == nil {
		t.Error("duplicate CreateTable should error")
	}
	if _, err := c.Scan(ctx, "missing", "", "", nil, 0); err == nil {
		t.Error("scan of missing table should error")
	}
}

func TestClientScanClientSideMatchesPushdown(t *testing.T) {
	srv := NewServer()
	c := Connect(srv)
	_ = c.CreateTable(context.Background(), "t")
	for i := 0; i < 40; i++ {
		_ = c.Put(context.Background(), "t", fmt.Sprintf("r%02d", i), "m", []byte(fmt.Sprintf("%d", i%4)))
	}
	f := &ColumnEqualsFilter{Column: "m", Value: "2"}
	pushed, err := c.Scan(context.Background(), "t", "", "", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.ScanClientSide(context.Background(), "t", "", "", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pushed) != len(local) {
		t.Fatalf("pushdown %d vs client-side %d matches", len(pushed), len(local))
	}
	// Client-side fetches everything; pushdown only matches.
	srv.ResetStats()
	_, _ = c.Scan(context.Background(), "t", "", "", f, 0)
	pStats := srv.Stats()
	srv.ResetStats()
	_, _ = c.ScanClientSide(context.Background(), "t", "", "", f, 0)
	cStats := srv.Stats()
	if pStats.RowsReturned >= cStats.RowsReturned {
		t.Errorf("pushdown returned %d rows, client-side %d — pushdown should move fewer",
			pStats.RowsReturned, cStats.RowsReturned)
	}
}

func TestRowBytes(t *testing.T) {
	r := row("key", map[string]string{"a": "12345"})
	if r.Bytes() != int64(len("key")+len("a")+5) {
		t.Errorf("Bytes() = %d", r.Bytes())
	}
}

// TestClientPutRowCellOrderDeterministic: a row's cells are written in
// column-name order, whatever order the map iterates in — so per-cell
// timestamps (and with them WAL and sstable bytes) are the same from
// run to run (determinism, contract 3c).
func TestClientPutRowCellOrderDeterministic(t *testing.T) {
	cols := map[string][]byte{}
	for _, c := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		cols[c] = []byte("v-" + c)
	}
	for i := 0; i < 20; i++ {
		s := NewServer()
		c := Connect(s)
		ctx := context.Background()
		if err := c.CreateTable(ctx, "t"); err != nil {
			t.Fatal(err)
		}
		if err := c.PutRow(ctx, "t", Row{Key: "r", Columns: cols}); err != nil {
			t.Fatal(err)
		}
		snap, err := s.ExportRegion("t", s.Meta()[0].RegionID)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Cells) != len(cols) {
			t.Fatalf("server %d: exported %d cells, want %d", i, len(snap.Cells), len(cols))
		}
		sort.Slice(snap.Cells, func(a, b int) bool { return snap.Cells[a].Column < snap.Cells[b].Column })
		for j := 1; j < len(snap.Cells); j++ {
			if prev, cur := snap.Cells[j-1], snap.Cells[j]; cur.Ts <= prev.Ts {
				t.Fatalf("server %d: column %q has Ts %d, not after column %q's %d — cells were written in map order",
					i, cur.Column, cur.Ts, prev.Column, prev.Ts)
			}
		}
	}
}
