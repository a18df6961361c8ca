package hstore

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

// scanRange streams the table's cells with startRow <= row < endRow
// (endRow "" unbounded) through its lazy iterator; fn returning false
// stops the scan.
func (t *sstable) scanRange(startRow, endRow string, fn func(Cell) bool) error {
	it, err := t.iterate(startRow, endRow, nil)
	if err != nil {
		return err
	}
	for {
		if !it.ok || !fn(it.cur) {
			return nil
		}
		if err := it.advance(); err != nil {
			return err
		}
	}
}

func makeCells(n int, seed int64) []Cell {
	m := newMemStore(seed)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		m.Put(Cell{
			Row:    fmt.Sprintf("row%04d", r.Intn(n)),
			Column: fmt.Sprintf("col%d", r.Intn(4)),
			Ts:     int64(1 + r.Intn(3)),
			Value:  []byte(fmt.Sprintf("value-%d", i)),
		})
	}
	return m.Cells()
}

func TestSSTableScanMatchesSource(t *testing.T) {
	cells := makeCells(500, 1)
	tbl := buildSSTable(cells)
	var got []Cell
	tbl.scanRange("", "", func(c Cell) bool { got = append(got, c); return true })
	if len(got) != len(cells) {
		t.Fatalf("scan returned %d cells, want %d", len(got), len(cells))
	}
	for i := range cells {
		if got[i].Row != cells[i].Row || got[i].Column != cells[i].Column ||
			got[i].Ts != cells[i].Ts || string(got[i].Value) != string(cells[i].Value) {
			t.Fatalf("cell %d = %v, want %v", i, got[i], cells[i])
		}
	}
}

func TestSSTableRangeScan(t *testing.T) {
	cells := makeCells(300, 2)
	tbl := buildSSTable(cells)
	start, end := "row0050", "row0150"
	var got int
	tbl.scanRange(start, end, func(c Cell) bool {
		if c.Row < start || c.Row >= end {
			t.Fatalf("cell %q outside [%q,%q)", c.Row, start, end)
		}
		got++
		return true
	})
	want := 0
	for _, c := range cells {
		if c.Row >= start && c.Row < end {
			want++
		}
	}
	if got != want {
		t.Errorf("range scan returned %d cells, want %d", got, want)
	}
}

func TestSSTableBloomNoFalseNegatives(t *testing.T) {
	cells := makeCells(400, 3)
	tbl := buildSSTable(cells)
	for _, c := range cells {
		if !tbl.mayContainRow(c.Row) {
			t.Fatalf("bloom false negative for %q", c.Row)
		}
	}
	// Rows outside the key range are rejected outright.
	if tbl.mayContainRow("zzzz") {
		t.Error("row beyond maxRow should be rejected")
	}
}

func TestSSTableBloomFalsePositiveRate(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("present-%d", i))
	}
	fp := 0
	trials := 5000
	for i := 0; i < trials; i++ {
		if b.MayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / float64(trials); rate > 0.05 {
		t.Errorf("false positive rate %.3f > 5%%", rate)
	}
}

// Property: encode/decode round-trips the whole table.
func TestSSTableEncodeDecodeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		cells := makeCells(100+int(seed%200+200)%200, seed)
		tbl := buildSSTable(cells)
		raw := tbl.encode()
		back, err := decodeSSTable(raw)
		if err != nil {
			return false
		}
		if back.count != tbl.count || back.minRow != tbl.minRow || back.maxRow != tbl.maxRow {
			return false
		}
		var a, b []Cell
		tbl.scanRange("", "", func(c Cell) bool { a = append(a, c); return true })
		back.scanRange("", "", func(c Cell) bool { b = append(b, c); return true })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Row != b[i].Row || a[i].Column != b[i].Column ||
				a[i].Ts != b[i].Ts || string(a[i].Value) != string(b[i].Value) {
				return false
			}
		}
		// Bloom filter survives the round trip.
		for _, c := range cells[:10] {
			if !back.mayContainRow(c.Row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSSTableDecodeCorruption(t *testing.T) {
	tbl := buildSSTable(makeCells(50, 5))
	raw := tbl.encode()
	cases := map[string][]byte{
		"empty":       {},
		"short":       raw[:10],
		"bad magic":   append(append([]byte{}, raw[:len(raw)-1]...), 0xFF),
		"truncated":   raw[:len(raw)/2],
		"only footer": raw[len(raw)-24:],
	}
	for name, b := range cases {
		if name == "only footer" {
			// A bare footer points outside the data; must error, not panic.
			if _, err := decodeSSTable(b); err == nil {
				t.Errorf("%s: decode accepted corrupt input", name)
			}
			continue
		}
		if _, err := decodeSSTable(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestSSTableFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg1.sst")
	tbl := buildSSTable(makeCells(120, 7))
	if err := tbl.writeFile(OSFS, path); err != nil {
		t.Fatal(err)
	}
	back, err := readSSTableFile(OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if back.count != tbl.count {
		t.Errorf("count = %d, want %d", back.count, tbl.count)
	}
}

func TestSSTableEmpty(t *testing.T) {
	tbl := buildSSTable(nil)
	if tbl.mayContainRow("anything") {
		t.Error("empty table should contain nothing")
	}
	got := 0
	tbl.scanRange("", "", func(Cell) bool { got++; return true })
	if got != 0 {
		t.Errorf("empty table scan returned %d cells", got)
	}
	if _, err := decodeSSTable(tbl.encode()); err != nil {
		t.Errorf("empty table round trip: %v", err)
	}
}

func TestSSTableSeekBlockSkipsBlocks(t *testing.T) {
	cells := makeCells(1000, 11)
	tbl := buildSSTable(cells)
	if len(tbl.blocks) < 2 {
		t.Fatalf("want multiple blocks for 1000 cells, got %d", len(tbl.blocks))
	}
	// Seeking deep into the table must not open the first block.
	if bi := tbl.seekBlock(tbl.maxRow); bi == 0 {
		t.Error("seek to maxRow started at block 0 — block index unused")
	}
}

// A row whose cells span a block boundary has its head at the end of one
// block and its tail at the start of the next, which then carries the
// row as its firstRow. A read starting exactly at that row must open the
// earlier block too: Get, MultiGet and a Scan from the row return every
// cell at its newest version.
func TestStraddlingRowReadsEveryCell(t *testing.T) {
	ctx := context.Background()
	s := NewServer()
	c := Connect(s)
	if err := c.CreateTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	const rows, cols = 60, 8
	key := func(i int) string { return fmt.Sprintf("row%03d", i) }
	value := func(ver string, i, f, width int) []byte {
		return []byte(fmt.Sprintf("%s-%d-%d-%0*d", ver, i, f, width, 0))
	}
	// Two flushed versions of every cell, of different widths so the two
	// segments break their blocks at different rows: a head skipped in
	// the newer segment reads back stale from the older one.
	for _, v := range []struct {
		ver   string
		width int
	}{{"old", 150}, {"new", 170}} {
		for i := 0; i < rows; i++ {
			for f := 0; f < cols; f++ {
				if err := c.Put(ctx, "t", key(i), fmt.Sprintf("col%d", f), value(v.ver, i, f, v.width)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Flush("t"); err != nil {
			t.Fatal(err)
		}
	}

	s.mu.RLock()
	segs := append([]*sstable(nil), s.tables["t"].regions[0].sstables...)
	s.mu.RUnlock()
	straddling := 0
	for _, seg := range segs {
		cells := scanAll(t, seg)
		n := 0
		for _, b := range seg.blocks[:len(seg.blocks)-1] {
			n += int(b.cells)
			if cells[n-1].Row == cells[n].Row {
				straddling++
			}
		}
	}
	if straddling == 0 {
		t.Fatal("setup: no row straddles a block boundary")
	}

	check := func(how string, i int, r Row) {
		t.Helper()
		if r.Key != key(i) || len(r.Columns) != cols {
			t.Fatalf("%s %s: got key %q with %d columns, want %d", how, key(i), r.Key, len(r.Columns), cols)
		}
		for f := 0; f < cols; f++ {
			if got, want := r.Columns[fmt.Sprintf("col%d", f)], value("new", i, f, 170); string(got) != string(want) {
				t.Fatalf("%s %s col%d = %.12q, want %.12q", how, key(i), f, got, want)
			}
		}
	}
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = key(i)
		r, ok, err := c.Get(ctx, "t", keys[i])
		if err != nil || !ok {
			t.Fatalf("Get %s: ok=%v err=%v", keys[i], ok, err)
		}
		check("Get", i, r)
		scanned, err := c.Scan(ctx, "t", keys[i], "", nil, 1)
		if err != nil || len(scanned) != 1 {
			t.Fatalf("Scan from %s: %d rows, err=%v", keys[i], len(scanned), err)
		}
		check("Scan", i, scanned[0])
	}
	got, found, err := c.MultiGet(ctx, "t", keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] {
			t.Fatalf("MultiGet %s: not found", keys[i])
		}
		check("MultiGet", i, got[i])
	}
}
