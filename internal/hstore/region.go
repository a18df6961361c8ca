package hstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// region is one horizontal partition of a table: the half-open row-key
// range [startKey, endKey). Writes land in the memstore; when it grows
// past flushBytes it is flushed to an immutable sstable. Reads merge
// the memstore and all sstables, newest first.
type region struct {
	mu       sync.RWMutex
	id       int
	startKey string
	endKey   string // "" = unbounded

	mem        *memStore
	sstables   []*sstable // newest first
	flushBytes int64
	totalBytes int64

	// quarantined latches when any read finds a checksum mismatch in
	// this region's data. A quarantined copy never serves again: reads
	// and writes fail with CorruptionError until a dstore master drops
	// it and rebuilds from a healthy replica.
	quarantined atomic.Bool

	// stats reports flushes, compactions, bloom probes, and detected
	// corruptions to the owning server; nil is a no-op.
	stats *storeStats

	// compactMu serializes compactions on this region. Flushes only
	// prepend to sstables and compaction is the sole remover, so a
	// snapshot taken under mu by the compaction holder stays a suffix
	// of the live list while the merge runs outside any lock.
	compactMu sync.Mutex

	// sealed (guarded by mu) is set by a split just before it copies
	// this region's rows into its children. A put finding the region
	// sealed must not land here — the copy would miss it — so put
	// refuses and the server re-routes to the child region. Writers that
	// completed before the seal are in the memstore or an sstable and
	// are picked up by the split's scan.
	sealed bool
}

func newRegion(id int, start, end string, flushBytes int64, stats *storeStats) *region {
	if flushBytes <= 0 {
		flushBytes = 4 << 20
	}
	return &region{
		id:         id,
		startKey:   start,
		endKey:     end,
		mem:        newMemStore(int64(id)*7919 + 1),
		flushBytes: flushBytes,
		stats:      stats,
	}
}

// contains reports whether the row key falls in this region's range.
func (g *region) contains(row string) bool {
	if row < g.startKey {
		return false
	}
	return g.endKey == "" || row < g.endKey
}

// corruptionDetected quarantines the region (first detection counts)
// and stamps the error with the region ID.
func (g *region) corruptionDetected(err error) error {
	if !g.quarantined.Swap(true) {
		g.stats.corruption()
	}
	var ce *CorruptionError
	if errors.As(err, &ce) && ce.Region == 0 {
		ce.Region = g.id
	}
	return err
}

// checkQuarantine refuses service on a region already known corrupt.
func (g *region) checkQuarantine() error {
	if g.quarantined.Load() {
		return &CorruptionError{Region: g.id, Detail: "region quarantined after checksum mismatch"}
	}
	return nil
}

// put inserts one cell, flushing the memstore if it has grown too big.
// A flush that pushes the segment count past the tier threshold kicks
// a tiered compaction — after the lock is released, so the merge never
// blocks this or any other writer. It reports false without writing
// when the region has been sealed by a split: the caller must
// re-resolve the row to the child region and retry there. Every cell
// a memstore keeps enters here, and its value is capped at its length:
// reads hand the value out, and an append to it must reallocate rather
// than write into the writer's spare capacity.
func (g *region) put(c Cell) bool {
	c.Value = c.Value[:len(c.Value):len(c.Value)]
	g.mu.Lock()
	if g.sealed {
		g.mu.Unlock()
		return false
	}
	g.mem.Put(c)
	g.totalBytes += int64(len(c.Row) + len(c.Column) + len(c.Value))
	flushed := false
	if g.mem.SizeBytes() >= g.flushBytes {
		g.flushLocked()
		flushed = true
	}
	nseg := len(g.sstables)
	g.mu.Unlock()
	if flushed && nseg >= tierFanout {
		g.maybeCompactTier()
	}
	return true
}

// seal marks the region as mid-split; subsequent puts are refused so
// the split's row copy cannot miss them.
func (g *region) seal() {
	g.mu.Lock()
	g.sealed = true
	g.mu.Unlock()
}

// unseal reopens a region whose split failed.
func (g *region) unseal() {
	g.mu.Lock()
	g.sealed = false
	g.mu.Unlock()
}

// Flush forces the memstore into a new sstable.
func (g *region) flush() {
	g.mu.Lock()
	g.flushLocked()
	nseg := len(g.sstables)
	g.mu.Unlock()
	if nseg >= tierFanout {
		g.maybeCompactTier()
	}
}

func (g *region) flushLocked() {
	cells := g.mem.Cells()
	if len(cells) == 0 {
		return
	}
	t := buildSSTable(cells)
	g.sstables = append([]*sstable{t}, g.sstables...)
	g.mem = newMemStore(int64(g.id)*7919 + int64(len(g.sstables))*13 + 1)
	g.stats.flush()
	g.stats.compress(t.compressionRatio())
}

// newestCells k-way merges the memstore snapshot and sstables (newest
// first) over [startRow, endRow) and passes fn the newest version of
// each (row, column), tombstones included; fn returning false stops the
// merge. Blocks open through cache; nil opens each afresh and leaves
// the cache alone. This is the store's one version rule. Every source
// yields (row, column, ts desc) order and a tie on (row, column, ts)
// goes to the earlier, newer source, so the first cell of a (row,
// column) the merge reaches is its newest version and every later one
// is shadowed.
func newestCells(memCells []Cell, tables []*sstable, startRow, endRow string, cache *blockCache, fn func(Cell) bool) error {
	// The memstore snapshot is a slab with no blocks behind it.
	mem := &ssIter{t: noBlocks, cells: memCells}
	srcs := []*ssIter{mem}
	if err := mem.advance(); err != nil {
		return err
	}
	for _, t := range tables {
		it, err := t.iterate(startRow, endRow, cache)
		if err != nil {
			return err
		}
		srcs = append(srcs, it)
	}
	var last Cell
	for {
		var best *ssIter
		for _, it := range srcs {
			if it.ok && (best == nil || it.cur.less(best.cur)) {
				best = it
			}
		}
		if best == nil {
			return nil
		}
		c := best.cur
		if err := best.advance(); err != nil {
			return err
		}
		// A cell with an empty row key predates the write check that
		// refuses one; it was never readable, and compaction drops it.
		// So no cell passed on has last's zero row.
		if c.Row == "" || c.Row == last.Row && c.Column == last.Column {
			continue
		}
		last = c
		if !fn(c) {
			return nil
		}
	}
}

// scanRows passes fn each row in [startRow, endRow) that has a live
// column, as mergeRows does; fn returning false stops early.
// The region lock is held only long enough to snapshot the memstore's
// in-range cells and the sstable list; the merge and fn callbacks run
// outside it against immutable segments, so a slow consumer (an HTTP
// scan response draining to a client) no longer blocks flushes, splits,
// or writers. Sstable blocks are decompressed lazily as the merge
// reaches them rather than materialized up front, or come from the
// server's block cache. A checksum mismatch in any touched block
// quarantines the region and aborts the scan with a CorruptionError —
// partial garbage is never surfaced.
func (g *region) scanRows(startRow, endRow string, fn func(cellRun) bool) error {
	if err := g.checkQuarantine(); err != nil {
		return err
	}
	g.mu.RLock()
	memCells := g.memCells(startRow, endRow)
	tables := append([]*sstable(nil), g.sstables...)
	g.mu.RUnlock()
	return g.mergeRows(memCells, tables, startRow, endRow, fn)
}

// memCells snapshots the memstore's cells in [startRow, endRow); the
// caller holds mu.
func (g *region) memCells(startRow, endRow string) []Cell {
	var cells []Cell
	g.mem.scanRange(startRow, endRow, func(c Cell) bool {
		cells = append(cells, c)
		return true
	})
	return cells
}

// mergeRows groups the newest-version stream of a memstore snapshot and
// sstables (newest first) over [startRow, endRow) into rows, passing fn
// each row that has a live column as its run: its live cells in column
// order. The run is borrowed: once fn returns, its array is refilled
// with the next row. Values alias immutable memstore cells and sstable
// blocks, the server's cached blocks included, and are capped at their
// length.
func (g *region) mergeRows(memCells []Cell, tables []*sstable, startRow, endRow string, fn func(cellRun) bool) error {
	var run cellRun
	key := ""
	// A row whose every column was tombstoned has an empty run: it no
	// longer exists. After fn stops the merge, the run is left empty.
	err := newestCells(memCells, tables, startRow, endRow, g.stats.cache(), func(c Cell) bool {
		if c.Row != key {
			ok := len(run) == 0 || fn(run)
			run, key = run[:0], c.Row
			if !ok {
				return false
			}
		}
		if !c.Deleted {
			run = append(run, c)
		}
		return true
	})
	if err != nil {
		return g.corruptionDetected(err)
	}
	if len(run) > 0 {
		fn(run)
	}
	return nil
}

// get returns the materialized row. The read merges only the sstables
// whose bloom filter admits the row; if the memstore also has nothing
// for it, the read answers negatively without opening any block. The
// filters are tested under the same lock that snapshots the memstore
// and the sstable list: tested earlier, a concurrent flush could move
// the row into a segment the filtered list leaves out.
func (g *region) get(row string) (Row, bool, error) {
	if err := g.checkQuarantine(); err != nil {
		return Row{}, false, err
	}
	end := row + "\x00"
	g.mu.RLock()
	memCells := g.memCells(row, end)
	var tables []*sstable
	for _, t := range g.sstables {
		hit := t.mayContainRow(row)
		g.stats.bloom(!hit)
		if hit {
			tables = append(tables, t)
		}
	}
	g.mu.RUnlock()
	if len(memCells) == 0 && len(tables) == 0 {
		return Row{}, false, nil
	}

	// The merge's one row is the answer.
	var out Row
	err := g.mergeRows(memCells, tables, row, end, func(r cellRun) bool {
		out, _ = r.build(nil)
		return false
	})
	if err != nil {
		return Row{}, false, err
	}
	return out, out.Columns != nil, nil
}

// splitPoint proposes a middle row key, or "" if the region holds too
// few distinct rows to split.
func (g *region) splitPoint() (string, error) {
	var rows []string
	if err := g.scanRows(g.startKey, g.endKey, func(r cellRun) bool {
		rows = append(rows, r[0].Row)
		return true
	}); err != nil {
		return "", err
	}
	if len(rows) < 2 {
		return "", nil
	}
	return rows[len(rows)/2], nil
}

// split divides the region at the given key into two fresh regions.
func (g *region) split(at string, leftID, rightID int) (*region, *region, error) {
	if at <= g.startKey || (g.endKey != "" && at >= g.endKey) {
		return nil, nil, fmt.Errorf("hstore: split key %q outside region [%q,%q)", at, g.startKey, g.endKey)
	}
	left := newRegion(leftID, g.startKey, at, g.flushBytes, g.stats)
	right := newRegion(rightID, at, g.endKey, g.flushBytes, g.stats)
	if err := g.scanRows(g.startKey, g.endKey, func(r cellRun) bool {
		target := left
		if r[0].Row >= at {
			target = right
		}
		for _, c := range r {
			target.put(Cell{Row: c.Row, Column: c.Column, Ts: 1, Value: c.Value})
		}
		return true
	}); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// Compaction. Two flavors share the same non-blocking shape —
// snapshot the segment list under the lock, merge entirely outside it,
// swap the merged segment in under a brief critical section:
//
//   - compact() is the major compaction persist and Server.Compact
//     call: it folds everything (memstore included) into one segment,
//     looping until no concurrent flush slipped in mid-merge.
//   - maybeCompactTier() is the size-tiered background step triggered
//     by flushes: it merges one contiguous run of similar-sized
//     segments, bounding read amplification without ever rewriting the
//     whole region per flush.
//
// Writes that land mid-compaction flush into segments prepended ahead
// of the merging run; the swap keeps them and replaces only the run it
// snapshotted, so nothing is lost and newer data keeps shadowing the
// merged (superseded) segments. Merged output is pushed through the
// owning server's compaction rate limiter so a large merge cannot
// starve foreground traffic.

// tierFanout is both the flush count that triggers a tiered compaction
// and the minimum run length worth merging.
const tierFanout = 4

// compact folds the memstore and every sstable into a single segment,
// keeping only the newest version of each (row, column) and dropping
// tombstones (nothing older survives to be un-hidden). The merge runs
// outside the region lock; the loop re-folds until the swap finds no
// segments flushed mid-merge, so on a quiesced region it returns with
// exactly one segment — what checkpointing relies on.
func (g *region) compact() error {
	if err := g.checkQuarantine(); err != nil {
		return err
	}
	g.compactMu.Lock()
	defer g.compactMu.Unlock()
	for {
		g.flush()
		g.mu.RLock()
		snap := append([]*sstable(nil), g.sstables...)
		memEmpty := g.mem.Len() == 0
		g.mu.RUnlock()
		if len(snap) <= 1 && memEmpty {
			return nil
		}
		if len(snap) == 0 {
			continue // a write raced the flush; flush again
		}
		g.stats.compaction()
		merged, err := newestVersions(nil, snap, true)
		if err != nil {
			return g.corruptionDetected(err)
		}
		nt := buildSSTable(merged)
		g.stats.compress(nt.compressionRatio())
		g.stats.throttleBytes(len(nt.data))
		g.swapRun(snap, 0, len(snap), nt)
		// Loop: if nothing flushed mid-merge the region now holds at
		// most the merged segment and the next pass returns; otherwise
		// the new prefix gets folded in too.
	}
}

// maybeCompactTier runs one size-tiered compaction step if a run of
// similar-sized segments has accumulated. It never blocks: a put that
// finds a compaction already in flight skips (a later flush retries),
// and the merge itself holds no region lock.
func (g *region) maybeCompactTier() {
	if g.quarantined.Load() {
		return
	}
	if !g.compactMu.TryLock() {
		return
	}
	defer g.compactMu.Unlock()
	g.mu.RLock()
	snap := append([]*sstable(nil), g.sstables...)
	g.mu.RUnlock()
	i, j := pickTierRun(snap)
	if j-i < 2 {
		return
	}
	g.stats.compaction()
	g.stats.tierMerge(j - i)
	// Tombstones drop only when the run reaches the oldest segment;
	// otherwise an older segment below could resurface hidden data.
	merged, err := newestVersions(nil, snap[i:j], j == len(snap))
	if err != nil {
		g.corruptionDetected(err)
		return
	}
	nt := buildSSTable(merged)
	g.stats.compress(nt.compressionRatio())
	g.stats.throttleBytes(len(nt.data))
	g.swapRun(snap, i, j, nt)
}

// pickTierRun chooses a contiguous run snap[i:j) (newest first) to
// merge: the oldest run of >= tierFanout segments in the same size
// class, falling back to folding the oldest tierFanout segments when
// the list has grown long without forming one.
func pickTierRun(tables []*sstable) (int, int) {
	if len(tables) < tierFanout {
		return 0, 0
	}
	class := func(t *sstable) int {
		c := 0
		for n := len(t.data) >> 12; n > 0; n >>= 2 {
			c++
		}
		return c
	}
	end := len(tables)
	for end > 0 {
		start := end - 1
		c := class(tables[start])
		for start > 0 && class(tables[start-1]) == c {
			start--
		}
		if end-start >= tierFanout {
			return start, end
		}
		end = start
	}
	if len(tables) >= 3*tierFanout {
		return len(tables) - tierFanout, len(tables)
	}
	return 0, 0
}

// swapRun replaces the contiguous run snap[i:j] with merged under a
// short critical section. Because compactMu serializes removals and
// flushes only prepend, snap is still a suffix of the live list; the
// prefix holds whatever flushed mid-merge and is kept verbatim.
func (g *region) swapRun(snap []*sstable, i, j int, merged *sstable) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	prefix := len(g.sstables) - len(snap)
	if prefix < 0 {
		return false
	}
	for k := i; k < j; k++ {
		if g.sstables[prefix+k] != snap[k] {
			return false
		}
	}
	ns := make([]*sstable, 0, len(g.sstables)-(j-i)+1)
	ns = append(ns, g.sstables[:prefix+i]...)
	if merged != nil && merged.count > 0 {
		ns = append(ns, merged)
	}
	ns = append(ns, g.sstables[prefix+j:]...)
	g.sstables = ns
	return true
}

// newestVersions collects the newest version of every (row, column) in
// memCells and tables (newest first) through newestCells, so the result
// holds exactly what reads see, tombstones included unless
// dropTombstones is set. Values are cloned out of the block buffers:
// the cells outlive the merge. It bypasses the block cache: compaction
// and export read blocks that are about to die or be shipped once, and
// must not evict the blocks reads keep hot.
func newestVersions(memCells []Cell, tables []*sstable, dropTombstones bool) ([]Cell, error) {
	var out []Cell
	err := newestCells(memCells, tables, "", "", nil, func(c Cell) bool {
		if !c.Deleted || !dropTombstones {
			c.Value = append([]byte(nil), c.Value...)
			out = append(out, c)
		}
		return true
	})
	return out, err
}

// exportCells returns the newest live cell of every (row, column) in
// the region, timestamps preserved — the payload of a RegionSnapshot.
// Tombstoned columns are omitted entirely: the importing side starts
// from nothing — or, for a backfill, from an empty copy that has since
// received only writes newer than what they deleted — so there is no
// older version left to hide. A corrupt copy refuses to export:
// snapshots for replication must come from a healthy replica.
func (g *region) exportCells() ([]Cell, error) {
	if err := g.checkQuarantine(); err != nil {
		return nil, err
	}
	g.mu.RLock()
	memCells := g.mem.Cells()
	tables := append([]*sstable(nil), g.sstables...)
	g.mu.RUnlock()
	cells, err := newestVersions(memCells, tables, true)
	if err != nil {
		return nil, g.corruptionDetected(err)
	}
	return cells, nil
}

// segmentCount returns memstore presence plus sstable count, the read
// amplification a point lookup faces.
func (g *region) segmentCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := len(g.sstables)
	if g.mem.Len() > 0 {
		n++
	}
	return n
}

// sizeBytes returns the total bytes ever written to the region.
func (g *region) sizeBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.totalBytes
}
