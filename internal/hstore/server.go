package hstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstorm/internal/httperr"
	"pstorm/internal/obs"
)

// Server is a single-process region server plus master: it hosts
// tables, each horizontally partitioned into key-range regions, and
// maintains the META catalog mapping (table, startKey) to regions —
// the structure §5.2 of the paper reasons about when comparing data
// models.
type Server struct {
	mu     sync.RWMutex
	tables map[string]*table
	nextID int

	// Transfer accounting for the filter-pushdown experiment (§5.3).
	rowsScanned   atomic.Int64
	rowsReturned  atomic.Int64
	bytesReturned atomic.Int64

	// FlushBytes is the per-region memstore flush threshold (default 4 MB).
	FlushBytes int64

	// wal, when non-nil, makes mutations durable, and fs is the
	// filesystem it and checkpoints write through (nil: the OS). Both
	// are set once, by OpenDurableWith, before the server is shared.
	wal *Log
	fs  FS
	// ckpt is held shared by a write from its WAL append until its
	// cell is in the memstore, and exclusively by SaveTo while it takes
	// its WAL mark, so every frame before the mark is in memory then.
	ckpt sync.RWMutex
	// logged, when set, runs between a write's WAL append and its
	// memstore insert; tests hook it to park a write there.
	logged func()

	// WallClock, when non-nil, replaces time.Now for the one-time
	// seeding of the logical clock (tests inject a fixed epoch).
	WallClock func() time.Time

	clock    atomic.Int64 // logical timestamp source
	seedOnce sync.Once    // guards the wall-clock seeding of clock

	o     *obs.Registry
	stats *storeStats
}

// storeStats carries the LSM-path counters regions report into. The
// handles are obs counters so snapshots pick them up directly; a nil
// *storeStats (regions built outside a server in tests), or any nil
// field, is a no-op.
type storeStats struct {
	flushes       *obs.Counter
	compactions   *obs.Counter
	bloomChecks   *obs.Counter
	bloomSkips    *obs.Counter
	corruptions   *obs.Counter
	tierMerges    *obs.Counter
	tierSegments  *obs.Histogram
	compressRatio *obs.Histogram

	// blocks caches opened sstable blocks for reads; it counts its own
	// hits and misses (hstore_block_cache_{hits,misses}_total).
	blocks *blockCache

	// throttle, when set, is called with the size of each merged
	// compaction segment before it is swapped in; tests hook it to land
	// writes mid-compaction deterministically.
	throttle func(bytes int)
}

// cache returns the server's block cache, nil (no caching) without one.
func (st *storeStats) cache() *blockCache {
	if st == nil {
		return nil
	}
	return st.blocks
}

func (st *storeStats) flush() {
	if st != nil && st.flushes != nil {
		st.flushes.Inc()
	}
}

func (st *storeStats) compaction() {
	if st != nil && st.compactions != nil {
		st.compactions.Inc()
	}
}

func (st *storeStats) corruption() {
	if st != nil && st.corruptions != nil {
		st.corruptions.Inc()
	}
}

func (st *storeStats) bloom(skipped bool) {
	if st == nil || st.bloomChecks == nil {
		return
	}
	st.bloomChecks.Inc()
	if skipped {
		st.bloomSkips.Inc()
	}
}

// tierMerge records one size-tiered compaction merging n segments.
func (st *storeStats) tierMerge(n int) {
	if st == nil {
		return
	}
	if st.tierMerges != nil {
		st.tierMerges.Inc()
	}
	if st.tierSegments != nil {
		st.tierSegments.Observe(float64(n))
	}
}

// compress records the block compression ratio of a freshly built
// sstable (uncompressed/stored; empty tables are skipped).
func (st *storeStats) compress(ratio float64) {
	if st == nil || st.compressRatio == nil || ratio <= 0 {
		return
	}
	st.compressRatio.Observe(ratio)
}

// throttleBytes reports a merged compaction segment of n bytes to the
// test hook, if any.
func (st *storeStats) throttleBytes(n int) {
	if st != nil && st.throttle != nil {
		st.throttle(n)
	}
}

type table struct {
	name    string
	regions []*region // sorted by startKey
}

// NewServer creates an empty server.
func NewServer() *Server {
	o := obs.NewRegistry()
	s := &Server{
		tables: make(map[string]*table),
		o:      o,
		stats: &storeStats{
			flushes:       o.Counter("hstore_flushes_total"),
			compactions:   o.Counter("hstore_compactions_total"),
			bloomChecks:   o.Counter("hstore_bloom_checks_total"),
			bloomSkips:    o.Counter("hstore_bloom_skips_total"),
			corruptions:   o.Counter("store_corruptions_detected_total"),
			tierMerges:    o.Counter("compaction_tier_merges_total"),
			tierSegments:  o.Histogram("compaction_tier_segments", []float64{2, 4, 8, 16}),
			compressRatio: o.Histogram("sstable_block_compress_ratio", []float64{1, 1.25, 1.5, 2, 3, 5}),
			blocks: newBlockCache(blockCacheBytes,
				o.Counter("hstore_block_cache_hits_total"), o.Counter("hstore_block_cache_misses_total")),
		},
	}
	o.GaugeFunc("hstore_memstore_bytes", s.memstoreBytes)
	return s
}

// Obs exposes the server's metrics registry. The bloom hit rate is
// hstore_bloom_skips_total / hstore_bloom_checks_total — a skip is a
// probe that saved an sstable read.
func (s *Server) Obs() *obs.Registry { return s.o }

// memstoreBytes sums the unflushed memstore bytes of every hosted
// region (collected lazily at snapshot time).
func (s *Server) memstoreBytes() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, t := range s.tables {
		for _, g := range t.regions {
			g.mu.RLock()
			total += g.mem.SizeBytes()
			g.mu.RUnlock()
		}
	}
	return float64(total)
}

// CreateTable registers a new table with one region spanning all keys.
// Creating an existing table is an error (HBase semantics).
func (s *Server) CreateTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("hstore: table %q already exists", name)
	}
	if s.wal != nil {
		if err := s.wal.Append(walCreateFrame(name)); err != nil {
			return err
		}
	}
	s.nextID++
	s.tables[name] = &table{
		name:    name,
		regions: []*region{newRegion(s.nextID, "", "", s.flushBytes(), s.stats)},
	}
	return nil
}

// Tables lists the table names.
func (s *Server) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Server) flushBytes() int64 {
	if s.FlushBytes > 0 {
		return s.FlushBytes
	}
	return 4 << 20
}

func (s *Server) table(name string) (*table, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hstore: table %q %w", name, ErrNoTable)
	}
	return t, nil
}

// regionFor locates the hosted region owning the row, or nil when the
// row falls in a key range this server does not host (possible once
// regions are installed/dropped individually by a dstore master; a
// standalone server's regions always cover the whole key space).
func (t *table) regionFor(row string) *region {
	i := sort.Search(len(t.regions), func(i int) bool {
		g := t.regions[i]
		return g.endKey == "" || row < g.endKey
	})
	if i >= len(t.regions) {
		return nil
	}
	if g := t.regions[i]; g.contains(row) {
		return g
	}
	return nil
}

// now issues a monotonically increasing logical timestamp. The clock
// is an atomic counter, seeded once from the wall clock so timestamps
// of a restarted server sort after everything it persisted (replay and
// Apply bump the counter past every durable cell, and the wall clock
// moved forward besides). After seeding, stamping is a single atomic
// add — no CAS loop, no syscall per write.
func (s *Server) now() int64 {
	s.seedOnce.Do(func() {
		wall := time.Now
		if s.WallClock != nil {
			wall = s.WallClock
		}
		s.bumpClock(wall().UnixNano())
	})
	return s.clock.Add(1)
}

// Put writes one cell, durably when a WAL is armed.
func (s *Server) Put(tableName, row, column string, value []byte) error {
	_, err := s.PutCell(tableName, row, column, value)
	return err
}

// PutCell writes one cell and returns it with its assigned timestamp,
// so a replicating caller can forward the identical cell to followers
// (Apply) and keep replicas byte-for-byte equal.
func (s *Server) PutCell(tableName, row, column string, value []byte) (Cell, error) {
	c := Cell{Row: row, Column: column, Ts: s.now(), Value: value}
	return c, s.applyCell(tableName, c, true)
}

// applyCell is the single write path: resolve the owning region, then
// WAL, then the region, so a refused cell never reaches the log. An
// empty row key is refused, as HBase does. Local writes refuse a
// quarantined copy — an acked write there could be lost when the region
// is rebuilt from a healthy replica; replicated cells (Apply) land
// regardless.
func (s *Server) applyCell(tableName string, c Cell, local bool) error {
	if c.Row == "" {
		return httperr.Errorf(httperr.CodeBadRequest, "hstore: table %q: empty row key", tableName)
	}
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	s.mu.RLock()
	g := t.regionFor(c.Row)
	s.mu.RUnlock()
	if g == nil {
		return &NotServingError{Table: tableName, Row: c.Row}
	}
	if local {
		if err := g.checkQuarantine(); err != nil {
			return withTable(err, tableName)
		}
	}
	if s.wal != nil {
		s.ckpt.RLock()
		defer s.ckpt.RUnlock()
		if err := s.wal.Append(walCellFrame(tableName, c)); err != nil {
			return err
		}
		if s.logged != nil {
			s.logged()
		}
	}
	g.put(c)
	return nil
}

// Apply writes pre-stamped cells — the replication and snapshot-install
// path. The server clock is advanced past every applied timestamp so
// subsequent local writes cannot be shadowed by replicated history.
func (s *Server) Apply(tableName string, cells []Cell) error {
	for _, c := range cells {
		s.bumpClock(c.Ts)
		if err := s.applyCell(tableName, c, false); err != nil {
			return err
		}
	}
	return nil
}

// bumpClock advances the logical clock to at least ts.
func (s *Server) bumpClock(ts int64) {
	for {
		prev := s.clock.Load()
		if ts <= prev || s.clock.CompareAndSwap(prev, ts) {
			return
		}
	}
}

// PutRow writes all columns of a row.
func (s *Server) PutRow(tableName string, r Row) error {
	cols := make([]string, 0, len(r.Columns))
	for c := range r.Columns {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		if err := s.Put(tableName, r.Key, c, r.Columns[c]); err != nil {
			return err
		}
	}
	return nil
}

// Delete writes a tombstone for one column of a row; older versions
// become invisible and are dropped at the next major compaction.
func (s *Server) Delete(tableName, row, column string) error {
	_, err := s.DeleteCell(tableName, row, column)
	return err
}

// DeleteCell writes a tombstone and returns it stamped, for replication
// (the delete-side twin of PutCell).
func (s *Server) DeleteCell(tableName, row, column string) (Cell, error) {
	c := Cell{Row: row, Column: column, Ts: s.now(), Deleted: true}
	return c, s.applyCell(tableName, c, true)
}

// DeleteRow tombstones every current column of a row. A row with no
// live columns no longer appears in reads.
func (s *Server) DeleteRow(tableName, row string) error {
	r, ok, err := s.Get(tableName, row)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	cols := make([]string, 0, len(r.Columns))
	for c := range r.Columns {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		if err := s.Delete(tableName, row, c); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches one row. The row's map is the caller's, but its values
// are read-only: they alias memstore cells and sstable blocks that the
// server's block cache shares with every other read. Each is capped at
// its length, so an append to one reallocates.
func (s *Server) Get(tableName, row string) (Row, bool, error) {
	t, err := s.table(tableName)
	if err != nil {
		return Row{}, false, err
	}
	s.mu.RLock()
	g := t.regionFor(row)
	s.mu.RUnlock()
	if g == nil {
		return Row{}, false, &NotServingError{Table: tableName, Row: row}
	}
	r, ok, err := g.get(row)
	if err != nil {
		return Row{}, false, withTable(err, tableName)
	}
	if ok {
		s.rowsReturned.Add(1)
		s.bytesReturned.Add(r.Bytes())
	}
	return r, ok, nil
}

// Scan streams rows with startRow <= key < endRow (endRow "" means
// unbounded) through the filter, region by region in key order. Only
// rows passing the filter are "returned" (and accounted); this is the
// server-side half of the pushdown mechanism. Limit 0 means no limit.
// The filter reads each row's cells; a Row is built only for a row
// that passes, and under a top-level Project filter only with its
// columns, which are what BytesReturned counts.
// The context is checked once per emitted row, so a canceled caller
// stops the merge mid-region instead of paying for the full range.
//
// Every returned row owns its Columns map. The values are read-only, as
// Get's are: they alias memstore cells and sstable blocks the block
// cache shares with every other read. Each is capped at its length, so
// an append reallocates, but writing into one in place corrupts the
// store.
func (s *Server) Scan(ctx context.Context, tableName, startRow, endRow string, f Filter, limit int) ([]Row, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	regions := append([]*region(nil), t.regions...)
	s.mu.RUnlock()

	// The scan range must be fully covered by hosted regions; a gap means
	// a routing client holds a stale view of who hosts what, and silently
	// returning partial results would read as missing rows. (A standalone
	// server always covers the key space.)
	cursor := startRow
	covered := false
	for _, g := range regions {
		if endRow != "" && g.startKey >= endRow {
			break
		}
		if g.endKey != "" && g.endKey <= cursor {
			continue
		}
		if g.startKey > cursor {
			return nil, &NotServingError{Table: tableName, Row: cursor}
		}
		if g.endKey == "" {
			covered = true
			break
		}
		cursor = g.endKey
		if endRow != "" && cursor >= endRow {
			covered = true
			break
		}
	}
	if !covered {
		return nil, &NotServingError{Table: tableName, Row: cursor}
	}

	proj, _ := f.(*ProjectFilter)
	var out []Row
	for _, g := range regions {
		if endRow != "" && g.startKey >= endRow {
			break
		}
		if g.endKey != "" && g.endKey <= startRow {
			continue
		}
		stop := false
		var ctxErr error
		if err := g.scanRows(startRow, endRow, func(r cellRun) bool {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
			s.rowsScanned.Add(1)
			if f != nil && !f.matchRun(r) {
				return true
			}
			kept, size := r.build(proj)
			out = append(out, kept)
			s.rowsReturned.Add(1)
			s.bytesReturned.Add(size)
			if limit > 0 && len(out) >= limit {
				stop = true
				return false
			}
			return true
		}); err != nil {
			return nil, withTable(err, tableName)
		}
		if ctxErr != nil {
			return nil, ctxErr
		}
		if stop {
			break
		}
	}
	return out, nil
}

// Flush forces every region of the table to flush its memstore.
func (s *Server) Flush(tableName string) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	s.mu.RLock()
	regions := append([]*region(nil), t.regions...)
	s.mu.RUnlock()
	for _, g := range regions {
		g.flush()
	}
	return nil
}

// localServerName names this server in catalog entries when no dstore
// master has assigned it an identity.
const localServerName = "regionserver-0"

// MetaEntry is one catalog row, as in HBase's .META. table: the key is
// (table, startKey, regionID) and the value names the hosting region
// server (always this server in the single-process build).
type MetaEntry struct {
	Table    string
	StartKey string
	EndKey   string
	RegionID int
	Server   string
}

// Meta returns the catalog.
func (s *Server) Meta() []MetaEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []MetaEntry
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, g := range s.tables[n].regions {
			out = append(out, MetaEntry{
				Table: n, StartKey: g.startKey, EndKey: g.endKey,
				RegionID: g.id, Server: localServerName,
			})
		}
	}
	return out
}

// TransferStats reports the accounting counters.
type TransferStats struct {
	RowsScanned   int64
	RowsReturned  int64
	BytesReturned int64
}

// Stats returns a snapshot of the transfer counters.
func (s *Server) Stats() TransferStats {
	return TransferStats{
		RowsScanned:   s.rowsScanned.Load(),
		RowsReturned:  s.rowsReturned.Load(),
		BytesReturned: s.bytesReturned.Load(),
	}
}

// ResetStats zeroes the transfer counters.
func (s *Server) ResetStats() {
	s.rowsScanned.Store(0)
	s.rowsReturned.Store(0)
	s.bytesReturned.Store(0)
}
