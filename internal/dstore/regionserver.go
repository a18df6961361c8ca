package dstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstorm/internal/hstore"
	"pstorm/internal/obs"
)

// RegionServer hosts a subset of regions on an embedded hstore.Server
// and replicates writes synchronously to its followers. It is the unit
// the master assigns regions to, fails over, and moves regions between.
type RegionServer struct {
	id  string
	hs  *hstore.Server
	reg *Registry

	mu     sync.RWMutex
	copies map[regionRef]*regionCopy // entries are never deleted

	stopped atomic.Bool
	hbStop  chan struct{}
	hbOnce  sync.Once

	// masterEpoch is the highest master epoch seen on any fenced
	// control RPC. Calls stamped with a lower (non-zero) epoch come
	// from a deposed leader and are rejected with ErrStaleMaster — the
	// region-server half of control-plane fencing.
	masterEpoch atomic.Int64

	// now feeds the latency histograms (default time.Now); tests
	// inject a fake clock, mirroring MasterOptions.Now.
	now func() time.Time

	o            *obs.Registry
	hPutMs       *obs.Histogram
	hGetMs       *obs.Histogram
	hReplMs      *obs.Histogram
	cNotServing  *obs.Counter
	cReplCells   *obs.Counter
	cApplies     *obs.Counter
	cHeartbeats  *obs.Counter
	cRejoins     *obs.Counter
	cStaleMaster *obs.Counter
}

// NewRegionServer creates a region server with an empty store. Its
// region boundaries are the master's catalog: copies arrive and leave
// only through InstallRegion and DropRegion.
func NewRegionServer(id string, reg *Registry) *RegionServer {
	o := obs.NewRegistry()
	rs := &RegionServer{
		id:           id,
		hs:           hstore.NewServer(),
		reg:          reg,
		copies:       make(map[regionRef]*regionCopy),
		hbStop:       make(chan struct{}),
		now:          time.Now,
		o:            o,
		hPutMs:       o.Histogram("dstore_rs_put_latency_ms", nil, "server", id),
		hGetMs:       o.Histogram("dstore_rs_get_latency_ms", nil, "server", id),
		hReplMs:      o.Histogram("dstore_rs_replication_latency_ms", nil, "server", id),
		cNotServing:  o.Counter("dstore_rs_notserving_total", "server", id),
		cReplCells:   o.Counter("dstore_rs_replicated_cells_total", "server", id),
		cApplies:     o.Counter("dstore_rs_apply_total", "server", id),
		cHeartbeats:  o.Counter("dstore_rs_heartbeats_sent_total", "server", id),
		cRejoins:     o.Counter("dstore_rs_rejoins_total", "server", id),
		cStaleMaster: o.Counter("dstore_rs_stale_master_total", "server", id),
	}
	reg.Register(rs)
	return rs
}

// Obs exposes the server's metrics registry. The embedded hstore keeps
// its own (HStore().Obs()); snapshots merge both.
func (rs *RegionServer) Obs() *obs.Registry { return rs.o }

// sinceMs returns milliseconds elapsed since start on the server's
// clock, for latency histograms.
func (rs *RegionServer) sinceMs(start time.Time) float64 {
	return float64(rs.now().Sub(start)) / float64(time.Millisecond)
}

// countNotServing records a client-visible NotServing rejection.
func (rs *RegionServer) countNotServing(err error) error {
	if hstore.IsNotServing(err) {
		rs.cNotServing.Inc()
	}
	return err
}

// guard translates client-visible store errors. A CorruptionError means
// the embedded hstore just quarantined a region copy: the client sees
// NotServing (a retryable "route away from me"), while the master
// learns the real reason through Health and rebuilds the copy from a
// healthy replica. The corruption itself is already counted by the
// hstore's store_corruptions_detected_total. A missing table is the
// same story: the request was routed here by META, so the table exists
// cluster-wide and this server simply does not host it — the
// characteristic answer of a restarted-empty incarnation still named
// by a client's cached route. Both must read as "refresh and retry",
// never as a hard store error.
func (rs *RegionServer) guard(table, row string, err error) error {
	if hstore.IsCorruption(err) || errors.Is(err, hstore.ErrNoTable) {
		rs.cNotServing.Inc()
		return &hstore.NotServingError{Table: table, Row: row}
	}
	return rs.countNotServing(err)
}

// ID returns the server's identity.
func (rs *RegionServer) ID() string { return rs.id }

// SeenMasterEpoch returns the highest master epoch this server has
// fenced against (tests and operator status).
func (rs *RegionServer) SeenMasterEpoch() int64 { return rs.masterEpoch.Load() }

// HStore exposes the embedded store (tests and stats).
func (rs *RegionServer) HStore() *hstore.Server { return rs.hs }

// Stop simulates a crash: every subsequent operation — including
// replication traffic from primaries — fails until the process is
// replaced. There is no Start; a recovered node rejoins as a fresh
// server.
func (rs *RegionServer) Stop() {
	rs.stopped.Store(true)
	rs.hbOnce.Do(func() { close(rs.hbStop) })
}

// Stopped reports whether the server has been stopped.
func (rs *RegionServer) Stopped() bool { return rs.stopped.Load() }

func (rs *RegionServer) check() error {
	if rs.stopped.Load() {
		return fmt.Errorf("%s: %w", rs.id, errStopped)
	}
	return nil
}

// checkCtx is check plus the caller's liveness: a request whose context
// is already done fails before any store work starts.
func (rs *RegionServer) checkCtx(ctx context.Context) error {
	if err := rs.check(); err != nil {
		return err
	}
	return ctx.Err()
}

// StartHeartbeats sends heartbeats to the master every interval until
// the server stops. self is this server's peer identity, kept so the
// loop can re-register when a master stops recognizing it. Used by
// pstormd and background local clusters; deterministic tests call
// rs.Beat (or mc.Heartbeat) themselves.
func (rs *RegionServer) StartHeartbeats(mc MasterConn, self Peer, interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-rs.hbStop:
				return
			case <-t.C:
				rs.Beat(mc, self)
			}
		}
	}()
}

// Beat is one heartbeat round. Most errors are ignored — a missed beat
// is exactly what the master's liveness timeout exists to notice — but
// an unknown-server rejection means the master's catalog has no entry
// for this server at all (its Join was acked by a since-deposed leader
// and lost on failover), and no amount of heartbeating fixes that: the
// server re-issues Join to re-register, and resumes plain beats once
// registered.
func (rs *RegionServer) Beat(mc MasterConn, self Peer) {
	rs.cHeartbeats.Inc()
	err := mc.Heartbeat(rs.id)
	if err == nil || !errors.Is(err, ErrUnknownServer) {
		return
	}
	if err := mc.Join(self); err == nil {
		rs.cRejoins.Inc()
		rs.o.Emit("rejoin", map[string]string{"server": rs.id})
	}
}

// regionCopy is the one home of a region copy's role on this server:
// primary with a follower chain, or fenced follower. The gate is the
// drain barrier between the two: every client write holds it shared
// from its role check to its last follower Apply, SetRole and Drop take
// it exclusively, so a fence returns only once every write it did not
// stop has reached the whole chain or failed. The record belongs to the
// key, not to the hosted copy — Drop resets it and never deletes it, so
// a writer parked on the gate across a Drop/Install of the same region
// meets the same gate when it wakes.
type regionCopy struct {
	gate    sync.RWMutex
	primary atomic.Bool // stored under gate exclusively; reads load it without the gate
	chain   []Peer      // guarded by gate
}

func (rs *RegionServer) copyFor(table string, regionID int) *regionCopy {
	k := regionRef{table, regionID}
	rs.mu.RLock()
	c := rs.copies[k]
	rs.mu.RUnlock()
	if c != nil {
		return c
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if c = rs.copies[k]; c == nil {
		c = &regionCopy{}
		rs.copies[k] = c
	}
	return c
}

// isPrimary reads the region's role without creating a record (none: never primary).
func (rs *RegionServer) isPrimary(table string, regionID int) bool {
	rs.mu.RLock()
	c := rs.copies[regionRef{table, regionID}]
	rs.mu.RUnlock()
	return c != nil && c.primary.Load()
}

func (rs *RegionServer) regionIDFor(table, row string) (int, error) {
	me, ok := rs.hs.LookupRegion(table, row)
	if !ok {
		return 0, rs.countNotServing(&hstore.NotServingError{Table: table, Row: row})
	}
	return me.RegionID, nil
}

// checkPrimary fails a client read NotServing unless the row's region is primary here.
func (rs *RegionServer) checkPrimary(table, row string) error {
	id, err := rs.regionIDFor(table, row)
	if err == nil && !rs.isPrimary(table, id) {
		err = rs.countNotServing(&hstore.NotServingError{Table: table, Row: row})
	}
	return err
}

// write is the one client write path. A copy that is not primary
// refuses; otherwise stamp writes the local cells of one region (row
// names it in errors), and they go to every follower of the role that
// admitted them, synchronously — an unreachable follower fails the
// write (the client retries while the master prunes the follower from
// the chain). All of it happens inside the region's gate, so no role
// change can fall between the role check and the ack.
func (rs *RegionServer) write(table string, regionID int, row string, stamp func() ([]hstore.Cell, error)) error {
	c := rs.copyFor(table, regionID)
	c.gate.RLock()
	defer c.gate.RUnlock()
	if !c.primary.Load() {
		return rs.countNotServing(&hstore.NotServingError{Table: table, Row: row})
	}
	cells, err := stamp()
	if err != nil {
		return rs.guard(table, row, err)
	}
	if len(cells) == 0 || len(c.chain) == 0 {
		return nil
	}
	start := rs.now()
	defer func() { rs.hReplMs.Observe(rs.sinceMs(start)) }()
	for _, p := range c.chain {
		conn, err := rs.reg.Resolve(p)
		if err != nil {
			return fmt.Errorf("%w: resolving follower %s: %v", errReplication, p.ID, err)
		}
		//pstorm:allow lockcheck the gate is a drain barrier a fence must wait on, not a data lock: a fence that returns means every admitted write has replicated
		if err := conn.Apply(table, cells); err != nil {
			return fmt.Errorf("%w: region %d to %s: %v", errReplication, regionID, p.ID, err)
		}
		rs.cReplCells.Add(int64(len(cells)))
	}
	return nil
}

// Put writes one cell to the primary copy and its followers.
func (rs *RegionServer) Put(ctx context.Context, table, row, column string, value []byte) error {
	if err := rs.checkCtx(ctx); err != nil {
		return err
	}
	start := rs.now()
	defer func() { rs.hPutMs.Observe(rs.sinceMs(start)) }()
	id, err := rs.regionIDFor(table, row)
	if err != nil {
		return err
	}
	return rs.write(table, id, row, func() ([]hstore.Cell, error) {
		c, err := rs.hs.PutCell(table, row, column, value)
		return []hstore.Cell{c}, err
	})
}

// BatchPut writes whole rows, one write — one replication round — per
// touched region, in region order. On error, earlier regions of the
// batch may already be applied — the routing client simply retries the
// batch (re-puts are idempotent: same columns, newer timestamps).
func (rs *RegionServer) BatchPut(ctx context.Context, table string, rows []hstore.Row) error {
	if err := rs.checkCtx(ctx); err != nil {
		return err
	}
	start := rs.now()
	defer func() { rs.hPutMs.Observe(rs.sinceMs(start)) }()
	perRegion := make(map[int][]hstore.Row)
	for _, r := range rows {
		id, err := rs.regionIDFor(table, r.Key)
		if err != nil {
			return err
		}
		perRegion[id] = append(perRegion[id], r)
	}
	ids := make([]int, 0, len(perRegion))
	for id := range perRegion {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		group := perRegion[id]
		err := rs.write(table, id, group[0].Key, func() ([]hstore.Cell, error) {
			var cells []hstore.Cell
			for _, r := range group {
				for _, col := range sortedColumns(r) {
					c, err := rs.hs.PutCell(table, r.Key, col, r.Columns[col])
					if err != nil {
						return nil, err
					}
					cells = append(cells, c)
				}
			}
			return cells, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func sortedColumns(r hstore.Row) []string {
	cols := make([]string, 0, len(r.Columns))
	for c := range r.Columns {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// Apply receives replicated cells from a primary (or a snapshot
// backfill) and applies them to the local — typically fenced — copy.
func (rs *RegionServer) Apply(table string, cells []hstore.Cell) error {
	if err := rs.check(); err != nil {
		return err
	}
	rs.cApplies.Inc()
	return rs.hs.Apply(table, cells)
}

// Get reads one row from a primary copy.
func (rs *RegionServer) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	return rs.get(ctx, table, row, true)
}

// FollowerGet reads one row from this server whatever its copy's role.
// Synchronous replication guarantees a follower copy holds every acked
// write, so the answer is as good as the primary's (modulo a racing
// write, which a primary read also races).
func (rs *RegionServer) FollowerGet(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	return rs.get(ctx, table, row, false)
}

func (rs *RegionServer) get(ctx context.Context, table, row string, requirePrimary bool) (hstore.Row, bool, error) {
	if err := rs.checkCtx(ctx); err != nil {
		return hstore.Row{}, false, err
	}
	start := rs.now()
	defer func() { rs.hGetMs.Observe(rs.sinceMs(start)) }()
	if requirePrimary {
		if err := rs.checkPrimary(table, row); err != nil {
			return hstore.Row{}, false, err
		}
	}
	r, ok, err := rs.hs.Get(table, row)
	return r, ok, rs.guard(table, row, err)
}

// Health reports this server's self-diagnosis: region copies it has
// quarantined after checksum failures. The master polls it (outside
// its catalog lock) and rebuilds quarantined copies from healthy
// replicas.
func (rs *RegionServer) Health() (HealthReport, error) {
	if err := rs.check(); err != nil {
		return HealthReport{}, err
	}
	return HealthReport{Quarantined: rs.hs.Quarantined()}, nil
}

// BatchGet point-reads many rows in one request. Both result slices are
// aligned with the requested keys; any row failing (e.g. a region this
// server stopped serving) fails the whole batch, so the client retries
// the batch against fresh META.
func (rs *RegionServer) BatchGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	if err := rs.checkCtx(ctx); err != nil {
		return nil, nil, err
	}
	start := rs.now()
	defer func() { rs.hGetMs.Observe(rs.sinceMs(start)) }()
	out := make([]hstore.Row, len(rows))
	found := make([]bool, len(rows))
	for i, row := range rows {
		// Checked per row: batch assembly is the long-running part, and
		// a departed caller should not pay for the remaining keys.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := rs.checkPrimary(table, row); err != nil {
			return nil, nil, err
		}
		r, ok, err := rs.hs.Get(table, row)
		if err != nil {
			return nil, nil, rs.guard(table, row, err)
		}
		out[i], found[i] = r, ok
	}
	return out, found, nil
}

// Scan reads [start, end) of one region the caller believes this server
// is primary for. The region ID pins the route: if the region moved or
// its copy here is not primary, the scan fails NotServing instead of
// silently returning a subset.
func (rs *RegionServer) Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	return rs.scan(ctx, table, regionID, start, end, f, limit, true)
}

// FollowerScan reads [start, end) of one hosted region whatever its
// copy's role. The region ID still pins the
// route (a moved region fails NotServing rather than returning a stale
// subset), and synchronous replication means a follower copy holds
// every acked write, so the rows are as fresh as the primary's.
func (rs *RegionServer) FollowerScan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	return rs.scan(ctx, table, regionID, start, end, f, limit, false)
}

func (rs *RegionServer) scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int, requirePrimary bool) ([]hstore.Row, error) {
	if err := rs.checkCtx(ctx); err != nil {
		return nil, err
	}
	me, ok := rs.hs.LookupRegion(table, start)
	if !ok || me.RegionID != regionID || (requirePrimary && !rs.isPrimary(table, regionID)) {
		return nil, rs.countNotServing(&hstore.NotServingError{Table: table, Row: start})
	}
	// Clamp to the region's bounds so the hstore coverage check sees a
	// fully hosted range.
	if start < me.StartKey {
		start = me.StartKey
	}
	if me.EndKey != "" && (end == "" || end > me.EndKey) {
		end = me.EndKey
	}
	rows, err := rs.hs.Scan(ctx, table, start, end, f, limit)
	if err != nil {
		return nil, rs.guard(table, start, err)
	}
	return rows, nil
}

// DeleteRow tombstones every column of a row, replicating the
// tombstones so followers converge.
func (rs *RegionServer) DeleteRow(ctx context.Context, table, row string) error {
	if err := rs.checkCtx(ctx); err != nil {
		return err
	}
	id, err := rs.regionIDFor(table, row)
	if err != nil {
		return err
	}
	return rs.write(table, id, row, func() ([]hstore.Cell, error) {
		r, ok, err := rs.hs.Get(table, row)
		if err != nil || !ok {
			return nil, err
		}
		cells := make([]hstore.Cell, 0, len(r.Columns))
		for _, col := range sortedColumns(r) {
			c, err := rs.hs.DeleteCell(table, row, col)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
		return cells, nil
	})
}

// Flush flushes every hosted region of the table.
func (rs *RegionServer) Flush(table string) error {
	if err := rs.check(); err != nil {
		return err
	}
	return rs.hs.Flush(table)
}

// Stats returns the embedded store's transfer counters.
func (rs *RegionServer) Stats() (hstore.TransferStats, error) {
	if err := rs.check(); err != nil {
		return hstore.TransferStats{}, err
	}
	return rs.hs.Stats(), nil
}

// ResetStats zeroes the transfer counters.
func (rs *RegionServer) ResetStats() error {
	if err := rs.check(); err != nil {
		return err
	}
	rs.hs.ResetStats()
	return nil
}

// Install hosts a region from a snapshot as a fenced follower copy —
// SetRole is the only door to primary — or, for a snapshot marked
// Backfill, merges it into the fenced copy already hosted.
func (rs *RegionServer) Install(snap *hstore.RegionSnapshot, masterEpoch int64) error {
	if err := rs.fence(masterEpoch); err != nil {
		return err
	}
	if snap == nil || !snap.Backfill {
		return rs.hs.InstallRegion(snap)
	}
	if err := rs.hs.HostsRegion(snap.Table, snap.RegionID); err != nil {
		return err // and no record for a region never hosted here
	}
	c := rs.copyFor(snap.Table, snap.RegionID)
	c.gate.Lock()
	defer c.gate.Unlock()
	if c.primary.Load() {
		return fmt.Errorf("dstore: region %d of table %q is primary here, not a fenced copy to backfill", snap.RegionID, snap.Table)
	}
	return rs.hs.BackfillRegion(snap)
}

// fence admits a mutating control RPC: the server must be up, and the
// master epoch monotonic — epoch 0 is the unfenced legacy single-master
// case, a higher epoch is adopted, and a lower one is a deposed leader's
// write — rejected so a paused or partitioned old master cannot mutate
// placement after a standby promoted.
func (rs *RegionServer) fence(masterEpoch int64) error {
	if err := rs.check(); err != nil || masterEpoch == 0 {
		return err
	}
	for {
		cur := rs.masterEpoch.Load()
		if masterEpoch < cur {
			rs.cStaleMaster.Inc()
			return fmt.Errorf("%w: got epoch %d, have %d", ErrStaleMaster, masterEpoch, cur)
		}
		if masterEpoch == cur || rs.masterEpoch.CompareAndSwap(cur, masterEpoch) {
			return nil
		}
	}
}

// Export snapshots a hosted region for a move or re-replication.
func (rs *RegionServer) Export(table string, regionID int) (*hstore.RegionSnapshot, error) {
	if err := rs.check(); err != nil {
		return nil, err
	}
	return rs.hs.ExportRegion(table, regionID)
}

// Drop removes a hosted region once its in-flight writes have drained,
// and resets its replication state to fenced-follower.
func (rs *RegionServer) Drop(table string, regionID int, masterEpoch int64) error {
	if err := rs.fence(masterEpoch); err != nil {
		return err
	}
	if err := rs.hs.HostsRegion(table, regionID); err != nil {
		return err // and no record for a region never hosted here
	}
	c := rs.copyFor(table, regionID)
	c.gate.Lock()
	defer c.gate.Unlock()
	c.primary.Store(false)
	c.chain = nil
	return rs.hs.DropRegion(table, regionID)
}

// SetRole is the one change of a hosted copy's replication state:
// primary serving clients and replicating to followers, or fenced
// follower (followers ignored). It takes the copy's gate exclusively,
// so it returns only after every client write admitted under the old
// role has finished its fan-out or failed, and every later write sees
// the new role whole.
func (rs *RegionServer) SetRole(table string, regionID int, primary bool, followers []Peer, masterEpoch int64) error {
	if err := rs.fence(masterEpoch); err != nil {
		return err
	}
	if err := rs.hs.HostsRegion(table, regionID); err != nil {
		return err // and no record for a region never hosted here
	}
	c := rs.copyFor(table, regionID)
	c.gate.Lock()
	defer c.gate.Unlock()
	if err := rs.hs.HostsRegion(table, regionID); err != nil {
		return err // dropped while this call waited for the gate
	}
	c.primary.Store(primary)
	c.chain = nil
	if primary {
		c.chain = append([]Peer(nil), followers...)
	}
	return nil
}
