package hstore

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestEmptyRowKeyRejected: every write path refuses an empty row key
// before it reaches the WAL, so nothing refused comes back on replay.
func TestEmptyRowKeyRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "", "c", []byte("v")); err == nil {
		t.Error("Put with an empty row key was acked")
	}
	if err := s.Delete("t", "", "c"); err == nil {
		t.Error("Delete with an empty row key was acked")
	}
	if err := s.Apply("t", []Cell{{Row: "", Column: "c", Ts: 5, Value: []byte("v")}}); err == nil {
		t.Error("Apply of a cell with an empty row key was acked")
	}
	mustPut(t, s, "t", "a", "c", "v")

	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []*Server{s, back} {
		rows, err := srv.Scan(context.Background(), "t", "", "", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Key != "a" {
			t.Errorf("scan after refused empty-key writes = %v, want only row a", rows)
		}
	}
}

// TestStoredEmptyRowKeyStaysHidden: a cell with an empty row key that a
// store still holds from before writes refused one is never read, in the
// memstore or in an sstable, and compaction and export drop it.
func TestStoredEmptyRowKeyStaysHidden(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	g := s.tables["t"].regions[0]
	g.put(Cell{Row: "", Column: "c", Ts: 1, Value: []byte("old")})
	mustPut(t, s, "t", "a", "c", "v")
	check := func(stage string) {
		t.Helper()
		rows, err := s.Scan(context.Background(), "t", "", "", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Key != "a" {
			t.Errorf("%s: scan = %v, want only row a", stage, rows)
		}
		if r, ok, err := s.Get("t", ""); ok || err != nil {
			t.Errorf("%s: Get of the empty row key = %v, %v, %v; want nothing", stage, r, ok, err)
		}
		snap, err := s.ExportRegion("t", g.id)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Cells) != 1 || snap.Cells[0].Row != "a" {
			t.Errorf("%s: export = %v, want only row a", stage, snap.Cells)
		}
	}
	check("memstore")
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	mustPut(t, s, "t", "a", "c", "v") // a second segment, so compaction merges
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	check("compacted")
	if len(g.sstables) != 1 || g.sstables[0].count != 1 {
		t.Errorf("compaction left %d segments; want one holding only row a", len(g.sstables))
	}
}

// modelVersion is the reference model's newest version of one column.
type modelVersion struct {
	ts      int64
	val     string
	deleted bool
}

// newestModel is the version rule stated without the storage engine:
// per (row, column) the highest timestamp wins, and of two writes with
// the same timestamp the later one wins.
type newestModel struct {
	cols map[string]map[string]modelVersion
	// floor is the newest tombstone ever written per row+"\x00"+column.
	// A compaction may drop a tombstone once nothing older lies beneath
	// it, after which a write older than it would be visible again;
	// explicit-ts writes therefore never go below the floor.
	floor map[string]int64
}

func (m *newestModel) write(c Cell) {
	if m.cols[c.Row] == nil {
		m.cols[c.Row] = make(map[string]modelVersion)
	}
	if cur, ok := m.cols[c.Row][c.Column]; !ok || c.Ts >= cur.ts {
		m.cols[c.Row][c.Column] = modelVersion{ts: c.Ts, val: string(c.Value), deleted: c.Deleted}
	}
	if k := c.Row + "\x00" + c.Column; c.Deleted && c.Ts > m.floor[k] {
		m.floor[k] = c.Ts
	}
}

// live returns the row's visible columns, nil when it has none.
func (m *newestModel) live(row string) map[string]string {
	var out map[string]string
	for col, v := range m.cols[row] {
		if !v.deleted {
			if out == nil {
				out = make(map[string]string)
			}
			out[col] = v.val
		}
	}
	return out
}

// rows returns the keys of the rows with a visible column, in order.
func (m *newestModel) rows() []string {
	var out []string
	for row := range m.cols {
		if m.live(row) != nil {
			out = append(out, row)
		}
	}
	sort.Strings(out)
	return out
}

// columnsDiff describes the first difference between a row's columns
// and want, in column order, or returns "" when they are equal.
func columnsDiff(r Row, want map[string]string) string {
	cols := make([]string, 0, len(want)+len(r.Columns))
	for c := range want {
		cols = append(cols, c)
	}
	for c := range r.Columns {
		if _, ok := want[c]; !ok {
			cols = append(cols, c)
		}
	}
	sort.Strings(cols)
	for _, c := range cols {
		v, got := r.Columns[c]
		w, ok := want[c]
		switch {
		case !got:
			return fmt.Sprintf("row %q lacks column %s", r.Key, c)
		case !ok:
			return fmt.Sprintf("row %q has extra column %s", r.Key, c)
		case string(v) != w:
			return fmt.Sprintf("row %q column %s holds %d bytes %.8x…, want %d bytes %.8x…", r.Key, c, len(v), v, len(w), w)
		}
	}
	return ""
}

// TestReadsMatchNewestVersionModel drives one server through random
// puts, deletes, explicit-timestamp applies (equal-timestamp duplicates
// across memstore and sstables included), flushes and compactions, and
// after every step checks Get, Scan (plain, filtered, limited, ranged)
// and ExportRegion against newestModel.
func TestReadsMatchNewestVersionModel(t *testing.T) {
	seeds, steps := 50, 200
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		checkNewestVersionModel(t, seed, steps, 0)
		if t.Failed() {
			return
		}
	}
}

// checkNewestVersionModel runs one seed of the model test. A cacheBytes
// above zero shrinks the server's block cache to that budget and makes
// the values compressible, so blocks inflate into the cache and evict
// one another at every step.
func checkNewestVersionModel(t *testing.T, seed int64, steps int, cacheBytes int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	s := NewServer()
	if cacheBytes > 0 {
		s.stats.blocks.max = cacheBytes
	}
	s.FlushBytes = 8 << 10
	s.WallClock = func() time.Time { return time.Unix(0, 0) }
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	regionID := s.Meta()[0].RegionID
	m := &newestModel{cols: map[string]map[string]modelVersion{}, floor: map[string]int64{}}
	rowKeys := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"}
	colKeys := []string{"c0", "c1", "c2", "c3", "c4"}
	// Values up to ~1.2 KiB make a row's five columns straddle the
	// ~4 KiB sstable blocks. Random bytes keep most blocks raw, which
	// keeps the test fast; the codec is not what it checks. Under a
	// shrunken cache all but a value's first 8 bytes repeat, so its
	// blocks are flate-coded and cached whole.
	value := func() []byte {
		b := make([]byte, 1+rng.Intn(1200))
		rng.Read(b)
		if cacheBytes > 0 {
			for i := 8; i < len(b); i++ {
				b[i] = 'a' + byte(i%7)
			}
		}
		return b
	}
	fail := func(step int, op, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
	}

	for step := 0; step < steps; step++ {
		row, col := rowKeys[rng.Intn(len(rowKeys))], colKeys[rng.Intn(len(colKeys))]
		var op string
		switch p := rng.Intn(100); {
		case p < 35:
			op = "put"
			c, err := s.PutCell("t", row, col, value())
			if err != nil {
				fail(step, op, "%v", err)
			}
			m.write(c)
		case p < 45:
			op = "delete"
			c, err := s.DeleteCell("t", row, col)
			if err != nil {
				fail(step, op, "%v", err)
			}
			m.write(c)
		case p < 50:
			op = "deleterow"
			live := m.live(row)
			cols := make([]string, 0, len(live))
			for c := range live {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			// DeleteRow stamps one tombstone per live column, in column
			// order, from the next clock ticks.
			ts := s.clock.Load()
			if err := s.DeleteRow("t", row); err != nil {
				fail(step, op, "%v", err)
			}
			for _, c := range cols {
				ts++
				m.write(Cell{Row: row, Column: c, Ts: ts, Deleted: true})
			}
			if got := s.clock.Load(); got != ts {
				fail(step, op, "clock at %d after deleting %d columns, model expects %d", got, len(cols), ts)
			}
		case p < 80:
			op = "apply"
			floor, clock := m.floor[row+"\x00"+col], s.clock.Load()
			ts := floor + rng.Int63n(clock-floor+2)
			if cur, ok := m.cols[row][col]; ok && rng.Intn(2) == 0 {
				ts = cur.ts // an equal-timestamp duplicate of the newest version
			}
			if ts < 1 {
				ts = 1
			}
			c := Cell{Row: row, Column: col, Ts: ts, Value: value()}
			if rng.Intn(5) == 0 {
				c.Value, c.Deleted = nil, true
			}
			if err := s.Apply("t", []Cell{c}); err != nil {
				fail(step, op, "%v", err)
			}
			m.write(c)
		case p < 92:
			op = "flush"
			if err := s.Flush("t"); err != nil {
				fail(step, op, "%v", err)
			}
		default:
			op = "compact"
			if err := s.Compact("t"); err != nil {
				fail(step, op, "%v", err)
			}
		}

		for _, r := range rowKeys {
			got, ok, err := s.Get("t", r)
			want := m.live(r)
			if err != nil || ok != (want != nil) {
				fail(step, op, "Get(%s): ok=%v err=%v, want %d live columns", r, ok, err, len(want))
			}
			if d := columnsDiff(got, want); ok && d != "" {
				fail(step, op, "Get: %s", d)
			}
		}
		wantRows := m.rows()
		checkScan := func(name, start, end string, f Filter, limit int, want []string) {
			t.Helper()
			got, err := s.Scan(ctx, "t", start, end, f, limit)
			if err != nil {
				fail(step, op, "%s scan: %v", name, err)
			}
			if len(got) != len(want) {
				fail(step, op, "%s scan returned %d rows, want %v", name, len(got), want)
			}
			for i, r := range got {
				if r.Key != want[i] {
					fail(step, op, "%s scan row %d is %q, want %q", name, i, r.Key, want[i])
				}
				if d := columnsDiff(r, m.live(r.Key)); d != "" {
					fail(step, op, "%s scan: %s", name, d)
				}
			}
		}
		checkScan("full", "", "", nil, 0, wantRows)
		var ranged []string
		for _, r := range wantRows {
			if r >= "r3" && r < "r7" {
				ranged = append(ranged, r)
			}
		}
		checkScan("ranged", "r3", "r7", nil, 0, ranged)
		if limit := 1 + rng.Intn(3); limit < len(wantRows) {
			checkScan("limited", "", "", nil, limit, wantRows[:limit])
		}
		if len(wantRows) > 0 {
			live := m.live(wantRows[rng.Intn(len(wantRows))])
			for c, v := range live {
				var match []string
				for _, r := range wantRows {
					if w, ok := m.live(r)[c]; ok && w == v {
						match = append(match, r)
					}
				}
				checkScan("filtered", "", "", &ColumnEqualsFilter{Column: c, Value: v}, 0, match)
				break
			}
		}

		snap, err := s.ExportRegion("t", regionID)
		if err != nil {
			fail(step, op, "export: %v", err)
		}
		var want []Cell
		for _, r := range wantRows {
			for c, v := range m.cols[r] {
				if !v.deleted {
					want = append(want, Cell{Row: r, Column: c, Ts: v.ts, Value: []byte(v.val)})
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		if len(snap.Cells) != len(want) {
			fail(step, op, "export holds %d cells, want %d", len(snap.Cells), len(want))
		}
		for i, c := range snap.Cells {
			w := want[i]
			if c.Row != w.Row || c.Column != w.Column || c.Ts != w.Ts || c.Deleted || string(c.Value) != string(w.Value) {
				fail(step, op, "export cell %d is %s:%s@%d (%d bytes), want %s:%s@%d (%d bytes)",
					i, c.Row, c.Column, c.Ts, len(c.Value), w.Row, w.Column, w.Ts, len(w.Value))
			}
		}
		if _, size := s.stats.blocks.stat(); size > s.stats.blocks.max {
			fail(step, op, "block cache holds %d bytes, over its %d-byte budget", size, s.stats.blocks.max)
		}
	}
	if cacheBytes > 0 {
		// Every miss inserts a block no larger than the budget, so more
		// misses than cached blocks means blocks were evicted.
		entries, _ := s.stats.blocks.stat()
		if misses := s.Obs().Snapshot().Counters["hstore_block_cache_misses_total"]; misses <= int64(entries) {
			t.Fatalf("seed %d: %d misses for %d cached blocks; the cache never evicted", seed, misses, entries)
		}
	}
}

// ownedRowsServer holds rows spread over two sstables and the memstore,
// with values large enough that a row straddles blocks.
func ownedRowsServer(t *testing.T) (*Server, map[string]map[string]string) {
	t.Helper()
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[string]string)
	for i := 0; i < 300; i++ {
		row := fmt.Sprintf("row%04d", i)
		want[row] = make(map[string]string)
		for c := 0; c < 4; c++ {
			col := fmt.Sprintf("col%d", c)
			v := fmt.Sprintf("%s/%s/%0*d", row, col, 20+(i*7+c)%200, i)
			mustPut(t, s, "t", row, col, v)
			want[row][col] = v
		}
		if i == 100 || i == 200 {
			if err := s.Flush("t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, want
}

// TestReadResultsAreCallerOwned: the merge hands its callback one
// borrowed row whose storage is reused for the next, so every row a
// read returns must be its own. Rows from Scan, Get and MultiGet stay
// byte-identical while further reads of the same region, concurrent
// ones included, run after them.
func TestReadResultsAreCallerOwned(t *testing.T) {
	checkReadResultsOwned(t, 0)
}

// checkReadResultsOwned runs TestReadResultsAreCallerOwned against a
// server whose block cache holds cacheBytes (0 keeps the default).
func checkReadResultsOwned(t *testing.T, cacheBytes int64) {
	ctx := context.Background()
	s, want := ownedRowsServer(t)
	if cacheBytes > 0 {
		s.stats.blocks.max = cacheBytes
	}
	c := Connect(s)
	keys := []string{"row0003", "row0099", "row0150", "row0201", "row0299"}
	filter := &ColumnEqualsFilter{Column: "col1", Value: want["row0150"]["col1"]}

	check := func(what string, r Row) {
		t.Helper()
		if d := columnsDiff(r, want[r.Key]); d != "" {
			t.Errorf("%s: %s", what, d)
		}
	}
	// read reports failures as an error: it also runs on goroutines
	// other than the test's, where t.Fatal must not be called.
	read := func() (scanned, filtered, got, multi []Row, err error) {
		if scanned, err = s.Scan(ctx, "t", "", "", nil, 0); err != nil || len(scanned) != len(want) {
			return nil, nil, nil, nil, fmt.Errorf("scan: %d rows, err %v", len(scanned), err)
		}
		if filtered, err = s.Scan(ctx, "t", "row0100", "row0200", filter, 0); err != nil || len(filtered) != 1 {
			return nil, nil, nil, nil, fmt.Errorf("filtered scan: %d rows, err %v", len(filtered), err)
		}
		for _, k := range keys {
			r, ok, err := s.Get("t", k)
			if !ok || err != nil {
				return nil, nil, nil, nil, fmt.Errorf("get %s: ok=%v err=%v", k, ok, err)
			}
			got = append(got, r)
		}
		multi, found, err := c.MultiGet(ctx, "t", keys)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		for i, ok := range found {
			if !ok {
				return nil, nil, nil, nil, fmt.Errorf("multiget missed %s", keys[i])
			}
		}
		return scanned, filtered, got, multi, nil
	}
	checkAll := func(what string, scanned, filtered, got, multi []Row) {
		t.Helper()
		for _, set := range [][]Row{scanned, filtered, got, multi} {
			for _, r := range set {
				check(what, r)
			}
		}
	}

	scanned, filtered, got, multi, err := read()
	if err != nil {
		t.Fatal(err)
	}
	checkAll("fresh", scanned, filtered, got, multi)

	// A caller may change the map it got; the next read must not see it.
	delete(got[0].Columns, "col0")
	if r, _, _ := s.Get("t", keys[0]); columnsDiff(r, want[keys[0]]) != "" {
		t.Errorf("editing a returned row changed the next Get: %s", columnsDiff(r, want[keys[0]]))
	}
	got[0].Columns["col0"] = []byte(want[keys[0]]["col0"])

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sc, fi, ge, mu, err := read()
				if err != nil {
					t.Error(err)
					return
				}
				checkAll("concurrent", sc, fi, ge, mu)
			}
		}()
	}
	wg.Wait()
	checkAll("after further reads", scanned, filtered, got, multi)
}

// cappedValuesServer holds one table per place a read can take a value
// from: "mem" stays in the memstore, and its values are slices of one
// writer buffer, each with the next value in its spare capacity; "raw"
// and "flate" are flushed, with every block of "raw" stored as is and
// every block of "flate" compressed (and so served from the block
// cache).
func cappedValuesServer(t *testing.T) (*Server, map[string]map[string]map[string]string) {
	t.Helper()
	s := NewServer()
	s.WallClock = func() time.Time { return time.Unix(0, 0) } // short timestamps
	want := map[string]map[string]map[string]string{}
	rng := rand.New(rand.NewSource(5))
	for _, tbl := range []string{"mem", "raw", "flate"} {
		if err := s.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
		want[tbl] = map[string]map[string]string{}
		buf := make([]byte, 0, 1<<14) // never regrown: every value shares it
		for i := 0; i < 150; i++ {
			key := fmt.Sprintf("row%04d", i)
			want[tbl][key] = map[string]string{}
			for c := 0; c < 3; c++ {
				col := fmt.Sprintf("col%d", c)
				v := []byte(fmt.Sprintf("%s-%s-%06d", key, col, i*37%1000))
				if tbl == "raw" {
					v = make([]byte, 96)
					rng.Read(v)
				}
				if tbl == "mem" {
					start := len(buf)
					buf = append(buf, v...)
					v = buf[start:len(buf):cap(buf)]
				}
				if err := s.Put(tbl, key, col, v); err != nil {
					t.Fatal(err)
				}
				want[tbl][key][col] = string(v)
			}
		}
		if tbl == "mem" {
			continue
		}
		if err := s.Flush(tbl); err != nil {
			t.Fatal(err)
		}
		codec := codecRaw
		if tbl == "flate" {
			codec = codecFlate
		}
		for _, g := range s.tables[tbl].regions {
			for _, st := range g.sstables {
				for i, b := range st.blocks {
					if b.codec != codec {
						t.Fatalf("%s: block %d has codec %d, want %d", tbl, i, b.codec, codec)
					}
				}
			}
		}
	}
	return s, want
}

// TestAppendToReadValuesLeavesStoreIntact: every value a read returns
// is capped at its length, so appending to it reallocates instead of
// writing past its end — into the next entry of a raw or cached block,
// or into the next value of a memstore writer's buffer. After a reader
// appends to every value Get, MultiGet and Scan return, from the
// memstore, a raw block and a flate block, every re-read is
// byte-identical, no region is quarantined and no corruption is
// counted.
func TestAppendToReadValuesLeavesStoreIntact(t *testing.T) {
	ctx := context.Background()
	s, want := cappedValuesServer(t)
	c := Connect(s)
	corruptions := func() int64 { return s.Obs().Snapshot().Counters["store_corruptions_detected_total"] }
	before := corruptions()
	scribble := func(rows []Row) {
		for _, r := range rows {
			for col, v := range r.Columns {
				v = append(v, "\xff\xff\xff\xff\xff\xff\xff\xff"...)
				r.Columns[col] = v
			}
		}
	}
	verify := func(what, tbl string) {
		t.Helper()
		rows, err := s.Scan(ctx, tbl, "", "", nil, 0)
		if err != nil {
			t.Fatalf("%s: %s: re-scan: %v", what, tbl, err)
		}
		if len(rows) != len(want[tbl]) {
			t.Fatalf("%s: %s: re-scan found %d rows, want %d", what, tbl, len(rows), len(want[tbl]))
		}
		for _, r := range rows {
			if d := columnsDiff(r, want[tbl][r.Key]); d != "" {
				t.Fatalf("%s: %s: re-scan: %s", what, tbl, d)
			}
			g, ok, err := s.Get(tbl, r.Key)
			if err != nil || !ok {
				t.Fatalf("%s: %s: re-get %s: ok=%v err=%v", what, tbl, r.Key, ok, err)
			}
			if d := columnsDiff(g, want[tbl][r.Key]); d != "" {
				t.Fatalf("%s: %s: re-get: %s", what, tbl, d)
			}
		}
	}
	keys := []string{"row0000", "row0001", "row0074", "row0148", "row0149"}
	for _, tbl := range []string{"mem", "raw", "flate"} {
		var got []Row
		for _, k := range keys {
			r, ok, err := s.Get(tbl, k)
			if err != nil || !ok {
				t.Fatalf("%s: get %s: ok=%v err=%v", tbl, k, ok, err)
			}
			got = append(got, r)
		}
		scribble(got)
		verify("after appending to Get's values", tbl)

		multi, _, err := c.MultiGet(ctx, tbl, keys)
		if err != nil {
			t.Fatalf("%s: multiget: %v", tbl, err)
		}
		scribble(multi)
		verify("after appending to MultiGet's values", tbl)

		scanned, err := s.Scan(ctx, tbl, "", "", nil, 0)
		if err != nil {
			t.Fatalf("%s: scan: %v", tbl, err)
		}
		scribble(scanned)
		verify("after appending to Scan's values", tbl)
	}
	for _, tbl := range []string{"mem", "raw", "flate"} {
		for _, g := range s.tables[tbl].regions {
			if g.quarantined.Load() {
				t.Errorf("%s: region %d quarantined", tbl, g.id)
			}
		}
	}
	if n := corruptions() - before; n != 0 {
		t.Errorf("store_corruptions_detected_total rose by %d", n)
	}
}

// TestFilteredScanAllocs: a scan whose filter rejects every row
// allocates per block, not per row. The values are random bytes, so
// every block stays raw and the count leaves out the flate reader's
// per-block tables.
func TestFilteredScanAllocs(t *testing.T) {
	const rows = 1200
	s := NewServer()
	s.WallClock = func() time.Time { return time.Unix(0, 0) } // short timestamps
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < rows; i++ {
		for _, col := range []string{"a", "b"} {
			v := make([]byte, 96)
			rng.Read(v)
			if err := s.Put("t", fmt.Sprintf("dyn/job_%05d", i), col, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	for _, g := range s.tables["t"].regions {
		for _, tbl := range g.sstables {
			for i, b := range tbl.blocks {
				if b.codec != codecRaw {
					t.Fatalf("block %d is flate-coded; the values must keep every block raw", i)
				}
			}
		}
	}
	ctx := context.Background()
	none := &ColumnEqualsFilter{Column: "a", Value: "no such value"}
	s.ResetStats()
	allocs := testing.AllocsPerRun(10, func() {
		if out, err := s.Scan(ctx, "t", "", "", none, 0); err != nil || len(out) != 0 {
			t.Fatalf("scan: %d rows, err %v", len(out), err)
		}
	})
	if scanned := s.Stats().RowsScanned; scanned != 11*rows {
		t.Fatalf("scanned %d rows over 11 scans, want %d", scanned, 11*rows)
	}
	t.Logf("%.0f allocations for %d rejected rows", allocs, rows)
	if allocs >= rows/4 {
		t.Errorf("a scan rejecting all %d rows allocated %.0f times, want < %d", rows, allocs, rows/4)
	}
}

// TestReturnedScanAllocs: a warm scan that returns N of M flushed rows
// allocates one map per returned row — the map the merge built the row
// in — and nothing per value, plus a constant for the scan itself.
func TestReturnedScanAllocs(t *testing.T) {
	const rows, kept, cols = 1200, 100, 6
	s := flateServer(t, rows)
	ctx := context.Background()
	keep := &PrefixFilter{Prefix: "dyn/job_001"} // job_00100 .. job_00199
	scan := func() {
		if out, err := s.Scan(ctx, "t", "", "", keep, 0); err != nil || len(out) != kept {
			t.Fatalf("scan: %d rows, err %v; want %d", len(out), err, kept)
		}
	}
	scan() // warm the block cache
	allocs := testing.AllocsPerRun(10, scan)

	// What one map of a returned row's shape costs the runtime.
	v := []byte("0.000000")
	names := make([]string, cols)
	for f := range names {
		names[f] = fmt.Sprintf("feat%d", f)
	}
	var sink map[string][]byte
	perMap := testing.AllocsPerRun(100, func() {
		m := make(map[string][]byte, cols)
		for _, n := range names {
			m[n] = v
		}
		sink = m
	})
	_ = sink
	// The constant: the warm scan's own allocations, bounded as in
	// TestWarmScanAllocs, plus the result slice's doublings.
	const scanAllocs = warmScanMaxAllocs + 8
	bound := kept*perMap + scanAllocs
	t.Logf("%.0f allocations for %d of %d rows (%.0f per map)", allocs, kept, rows, perMap)
	if allocs > bound {
		t.Errorf("a warm scan returning %d of %d rows allocated %.0f times, want at most %.0f (%.0f per map + %d)",
			kept, rows, allocs, bound, perMap, scanAllocs)
	}
}
