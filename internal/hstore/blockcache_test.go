package hstore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// evictingCacheBytes holds about two flate blocks, so a scan of more
// than two blocks evicts.
const evictingCacheBytes = 2 * (sstBlockSize + blockEntryOverhead)

// stat reports the cached block count and their cost in bytes.
func (c *blockCache) stat() (entries int, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.size
}

// flateServer holds one flushed sstable of compressible profile-shaped
// rows, every block flate-coded.
func flateServer(t *testing.T, rows int) *Server {
	t.Helper()
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		for f := 0; f < 6; f++ {
			mustPut(t, s, "t", fmt.Sprintf("dyn/job_%05d", i), fmt.Sprintf("feat%d", f), fmt.Sprintf("%d.%06d", f, i*37%1000000))
		}
	}
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	for _, g := range s.tables["t"].regions {
		for _, tbl := range g.sstables {
			for i, b := range tbl.blocks {
				if b.codec != codecFlate {
					t.Fatalf("block %d is stored raw; the values must compress", i)
				}
			}
		}
	}
	return s
}

func cacheCounters(s *Server) (hits, misses int64) {
	c := s.Obs().Snapshot().Counters
	return c["hstore_block_cache_hits_total"], c["hstore_block_cache_misses_total"]
}

// TestCachedBlockBitFlipDetected: a block whose decoded form sits in
// the cache is still checked against its stored checksum on every
// open, so a bit flipped in the stored payload after the block was
// cached fails the next read, quarantines the region and is counted
// once.
func TestCachedBlockBitFlipDetected(t *testing.T) {
	s := flateServer(t, 300)
	ctx := context.Background()
	rows, err := s.Scan(ctx, "t", "", "", nil, 0)
	if err != nil || len(rows) != 300 {
		t.Fatalf("first scan: %d rows, err %v", len(rows), err)
	}
	blocks := len(s.tables["t"].regions[0].sstables[0].blocks)
	if entries, _ := s.stats.blocks.stat(); entries != blocks {
		t.Fatalf("cache holds %d blocks after a full scan, want all %d", entries, blocks)
	}
	if !s.CorruptRegionData("t", s.Meta()[0].RegionID, 1001) {
		t.Fatal("CorruptRegionData found no sstable to damage")
	}
	if _, err := s.Scan(ctx, "t", "", "", nil, 0); !IsCorruption(err) {
		t.Fatalf("scan over a flipped bit in a cached block: err=%v, want CorruptionError", err)
	}
	if q := s.Quarantined(); len(q) != 1 || q[0].Table != "t" {
		t.Fatalf("Quarantined() = %v, want one region of table t", q)
	}
	if _, _, err := s.Get("t", "dyn/job_00010"); !IsCorruption(err) {
		t.Fatalf("get after quarantine: err=%v, want CorruptionError", err)
	}
	if n := s.Obs().Snapshot().Counters["store_corruptions_detected_total"]; n != 1 {
		t.Fatalf("corruption count = %d, want 1", n)
	}
}

// TestEvictingCacheReadsMatchModel is the model test against a
// cache of about two blocks, so every step's reads evict.
func TestEvictingCacheReadsMatchModel(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		checkNewestVersionModel(t, seed, 200, evictingCacheBytes)
		if t.Failed() {
			return
		}
	}
}

// TestEvictingCacheReadResultsOwned is TestReadResultsAreCallerOwned
// against a cache of about two blocks: concurrent reads evict blocks
// that rows returned earlier still alias.
func TestEvictingCacheReadResultsOwned(t *testing.T) {
	checkReadResultsOwned(t, evictingCacheBytes)
}

// TestCompactionAndExportBypassCache: compaction and export read every
// block once, so they neither fill the cache nor count against it.
func TestCompactionAndExportBypassCache(t *testing.T) {
	s := flateServer(t, 200)
	for i := 0; i < 50; i++ { // a second segment, so compaction merges
		mustPut(t, s, "t", fmt.Sprintf("dyn/job_%05d", i*3), "feat0", "new")
	}
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	g := s.tables["t"].regions[0]
	if len(g.sstables) != 2 {
		t.Fatalf("region holds %d segments, want 2", len(g.sstables))
	}
	if _, err := s.ExportRegion("t", g.id); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	if len(g.sstables) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(g.sstables))
	}
	if _, err := s.ExportRegion("t", g.id); err != nil {
		t.Fatal(err)
	}
	if entries, size := s.stats.blocks.stat(); entries != 0 || size != 0 {
		t.Errorf("cache holds %d blocks (%d bytes) after compaction and export, want none", entries, size)
	}
	if hits, misses := cacheCounters(s); hits != 0 || misses != 0 {
		t.Errorf("compaction and export moved the cache counters: %d hits, %d misses", hits, misses)
	}
	// The cache is live: a read fills it.
	if _, err := s.Scan(context.Background(), "t", "", "", nil, 0); err != nil {
		t.Fatal(err)
	}
	if entries, _ := s.stats.blocks.stat(); entries == 0 {
		t.Error("a scan after compaction cached no block")
	}
}

// warmScanMaxAllocs bounds a warm scan's allocations: under half the
// table's blocks, so no block can cost even one.
const warmScanMaxAllocs = 24

// TestWarmScanAllocs: once a table's blocks are cached, a full scan
// allocates no per-block buffer or row-key string. The filter rejects
// every row, so rows cost nothing and the count is the blocks' own.
func TestWarmScanAllocs(t *testing.T) {
	s := flateServer(t, 1200)
	blocks := len(s.tables["t"].regions[0].sstables[0].blocks)
	ctx := context.Background()
	none := &ColumnEqualsFilter{Column: "feat0", Value: "no such value"}
	scan := func() {
		if out, err := s.Scan(ctx, "t", "", "", none, 0); err != nil || len(out) != 0 {
			t.Fatalf("scan: %d rows, err %v", len(out), err)
		}
	}
	cache := s.stats.blocks
	cold := testing.AllocsPerRun(5, func() {
		s.stats.blocks = newBlockCache(blockCacheBytes, nil, nil)
		scan()
	})
	s.stats.blocks = cache
	scan()
	warm := testing.AllocsPerRun(10, scan)
	hits, _ := cacheCounters(s)
	if hits != int64(11*blocks) {
		t.Fatalf("%d cache hits over 11 warm scans of %d blocks, want %d", hits, blocks, 11*blocks)
	}
	t.Logf("%d blocks: %.0f allocations cold, %.0f warm", blocks, cold, warm)
	if blocks < 2*warmScanMaxAllocs {
		t.Fatalf("the table has %d blocks; the bound needs at least %d", blocks, 2*warmScanMaxAllocs)
	}
	if warm >= warmScanMaxAllocs {
		t.Errorf("a warm scan of %d cached blocks allocated %.0f times, want < %d (cold: %.0f)", blocks, warm, warmScanMaxAllocs, cold)
	}
}

// slabs counts the cached blocks that hold their decoded cells.
func (c *blockCache) slabs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.items {
		if e.Value.(*cacheEntry).cells != nil {
			n++
		}
	}
	return n
}

// TestConcurrentReadsOfDecodedBlocks: readers run filtered scans,
// projected scans and Gets against a cache of about four blocks while
// a writer puts, flushes and compacts, so blocks are decoded into
// slabs, evicted and dropped under the readers throughout. Every row a
// reader is returned must be right when returned, and still right, byte
// for byte, once every reader and the writer are done.
func TestConcurrentReadsOfDecodedBlocks(t *testing.T) {
	const rows = 300
	s := flateServer(t, rows)
	ctx := context.Background()
	for range 2 { // the second scan decodes every block
		if _, err := s.Scan(ctx, "t", "", "", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	entries, size := s.stats.blocks.stat()
	if slabs := s.stats.blocks.slabs(); slabs != entries || entries < 8 {
		t.Fatalf("%d of %d blocks decoded after two scans; want all of at least 8", slabs, entries)
	}
	old := s.stats.blocks
	s.stats.blocks = newBlockCache(4*size/int64(entries), old.hits, old.misses)
	hits0, misses0 := cacheCounters(s)

	want := func(key, col string) string { // flateServer's value
		var i, f int
		if n, _ := fmt.Sscanf(key+" "+col, "dyn/job_%05d feat%d", &i, &f); n != 2 {
			return "no such value"
		}
		return fmt.Sprintf("%d.%06d", f, i*37%1000000)
	}
	// check compares r with the stored row, cut down to cols when given.
	check := func(r Row, cols ...string) error {
		if strings.Contains(r.Key, "/w") { // a writer's row: column w only
			if len(cols) > 0 && r.Columns != nil {
				return fmt.Errorf("writer row %s projected to %v holds %v", r.Key, cols, r)
			}
			return nil
		}
		if cols == nil {
			cols = []string{"feat0", "feat1", "feat2", "feat3", "feat4", "feat5"}
		}
		if len(r.Columns) != len(cols) {
			return fmt.Errorf("row %s holds %d columns, want %d", r.Key, len(r.Columns), len(cols))
		}
		for _, c := range cols {
			if w := want(r.Key, c); string(r.Columns[c]) != w {
				return fmt.Errorf("row %s column %s = %q, want %q", r.Key, c, r.Columns[c], w)
			}
		}
		return nil
	}
	near := &EuclideanFilter{Features: []string{"feat1"}, Target: []float64{1}, Min: []float64{1}, Max: []float64{1.011063}, Threshold: 0.5}
	proj := Project(&PrefixFilter{Prefix: "dyn/job_001"}, "feat2", "feat4")

	type kept struct {
		r    Row
		cols []string
	}
	var readers sync.WaitGroup
	errs := make(chan error, 4) // at most one from each reader and the writer
	held := make([][]kept, 3)
	for g := range held {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			keep := func(r Row, cols ...string) bool {
				if err := check(r, cols...); err != nil {
					errs <- err
					return false
				}
				held[g] = append(held[g], kept{r, cols})
				return true
			}
			for range 25 {
				near, err := s.Scan(ctx, "t", "", "", near, 0)
				if err != nil || len(near) != 150 {
					errs <- fmt.Errorf("euclidean scan: %d rows, err %v", len(near), err)
					return
				}
				projected, err := s.Scan(ctx, "t", "dyn/job_00100", "dyn/job_00200", proj, 0)
				if err != nil || len(projected) < 100 {
					errs <- fmt.Errorf("projected scan: %d rows, err %v", len(projected), err)
					return
				}
				for _, r := range near {
					if !keep(r) {
						return
					}
				}
				for _, r := range projected {
					if !keep(r, "feat2", "feat4") {
						return
					}
				}
				for range 10 {
					key := fmt.Sprintf("dyn/job_%05d", 100+rng.Intn(100))
					r, ok, err := s.Get("t", key)
					if err != nil || !ok {
						errs <- fmt.Errorf("get %s: ok=%v err=%v", key, ok, err)
						return
					}
					if !keep(r) {
						return
					}
				}
			}
		}()
	}
	stop, written := make(chan struct{}), make(chan bool)
	go func() { // the writer; it reports whether it saw a slab cached
		sawSlab := false
		defer func() { written <- sawSlab }()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sawSlab = sawSlab || s.stats.blocks.slabs() > 0
			err := s.Put("t", fmt.Sprintf("dyn/job_%05d/w%d", i*7%rows, i), "w", []byte(strings.Repeat("x", i%50)))
			if err == nil && i%20 == 19 {
				err = s.Flush("t")
			}
			if err == nil && i%100 == 99 {
				err = s.Compact("t")
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	readers.Wait()
	close(stop)
	sawSlab := <-written
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !sawSlab {
		t.Error("no block was ever cached decoded: the readers never read one twice")
	}
	n := 0
	for _, rows := range held {
		for _, k := range rows {
			if err := check(k.r, k.cols...); err != nil {
				t.Fatalf("after the run: %v", err)
			}
			n++
		}
	}
	if hits, misses := cacheCounters(s); n < 3*25*250 || hits == hits0 || misses == misses0 {
		t.Errorf("%d rows re-checked, %d hits, %d misses; want every read kept and the cache both hit and missed", n, hits, misses)
	}
}
