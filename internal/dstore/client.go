package dstore

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstorm/internal/hstore"
	"pstorm/internal/obs"
)

// clientSeq distinguishes the RNG seeds of clients created in one
// process, so concurrent clients never share a jitter schedule.
var clientSeq atomic.Int64

// splitmix64 spreads consecutive seeds across the whole 64-bit space.
func splitmix64(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Client is the routing client: it caches META, routes every operation
// to the primary of the owning region, and on a stale route
// (NotServing, dead server, failed replication) refreshes META from the
// master and retries with exponential backoff. Every operation runs
// through one retry loop (retry), and a retry redoes only the part of
// the operation that failed: the unacked batch groups, the unanswered
// scan ranges. Its method set matches hstore.Client, so core.NewStore
// accepts either.
type Client struct {
	master MasterConn
	reg    *Registry

	// MaxAttempts bounds the retry loop per operation (default 12).
	MaxAttempts int
	// RetryBase is the first backoff step; step k sleeps a uniformly
	// random duration in [0, min(RetryBase<<k, 100ms)] — full jitter,
	// so clients retrying against the same recovering server spread out
	// instead of arriving in lockstep (default base 1ms). The RNG is
	// seeded per client: reproducible within a process, distinct across
	// clients.
	RetryBase time.Duration
	// BreakerThreshold is how many consecutive transport-class failures
	// open a server's circuit breaker (default 5; negative disables
	// breakers entirely).
	BreakerThreshold int
	// Now is the clock breakers time their cooldown on; tests inject a
	// seeded clock (defaults to the wall clock).
	Now func() time.Time

	mu     sync.RWMutex
	meta   Meta
	loaded bool

	rngMu sync.Mutex
	rng   *rand.Rand

	breakersMu sync.Mutex
	breakers   map[string]*breaker

	o             *obs.Registry
	mRetries      *obs.Counter
	mRefreshes    *obs.Counter
	mGiveUps      *obs.Counter
	hFanout       *obs.Histogram
	hBackoffMs    *obs.Histogram
	opCounters    map[string]*obs.Counter
	opCountersMu  sync.Mutex
	refreshPerOpH *obs.Histogram
}

// NewClient returns a routing client speaking to the master and
// resolving region servers through reg.
func NewClient(master MasterConn, reg *Registry) *Client {
	o := obs.NewRegistry()
	return &Client{
		master:        master,
		reg:           reg,
		rng:           rand.New(rand.NewSource(splitmix64(clientSeq.Add(1)))),
		o:             o,
		mRetries:      o.Counter("dstore_client_retries_total"),
		mRefreshes:    o.Counter("dstore_client_meta_refresh_total"),
		mGiveUps:      o.Counter("dstore_client_giveup_total"),
		hFanout:       o.Histogram("scan_parallel_fanout", []float64{1, 2, 4, 8, 16}),
		hBackoffMs:    o.Histogram("dstore_client_backoff_ms", nil),
		breakers:      make(map[string]*breaker),
		opCounters:    make(map[string]*obs.Counter),
		refreshPerOpH: o.Histogram("dstore_client_meta_refresh_per_op", []float64{0, 1, 2, 4, 8}),
	}
}

// Obs exposes the client's metrics registry.
func (c *Client) Obs() *obs.Registry { return c.o }

// countOp bumps the per-operation counter.
func (c *Client) countOp(op string) {
	c.opCountersMu.Lock()
	ctr, ok := c.opCounters[op]
	if !ok {
		ctr = c.o.Counter("dstore_client_ops_total", "op", op)
		c.opCounters[op] = ctr
	}
	c.opCountersMu.Unlock()
	ctr.Inc()
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 12
}

// backoff returns the sleep before retry k: full jitter over the
// exponential schedule, uniform in [0, min(RetryBase<<k, 100ms)]. The
// upper bound is deterministic; the draw is not, by design — see
// RetryBase.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.backoffCap(attempt)
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d) + 1))
	c.rngMu.Unlock()
	return j
}

// backoffCap is the deterministic upper bound of the attempt's backoff.
func (c *Client) backoffCap(attempt int) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << uint(attempt)
	if max := 100 * time.Millisecond; d > max || d <= 0 {
		d = max
	}
	return d
}

// sleepBackoff draws, records, and sleeps one backoff step,
// returning early with the context's error if it is canceled mid-sleep.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	d := c.backoff(attempt)
	c.hBackoffMs.Observe(float64(d) / float64(time.Millisecond))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// nowFn is the clock breakers run on.
func (c *Client) nowFn() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now() //pstorm:allow clockcheck this is the injection point's default when Client.Now is unset
}

// breakerFor returns the server's circuit breaker, creating it on
// first use, or nil when breakers are disabled.
func (c *Client) breakerFor(id string) *breaker {
	if c.BreakerThreshold < 0 {
		return nil
	}
	c.breakersMu.Lock()
	defer c.breakersMu.Unlock()
	if c.breakers == nil {
		c.breakers = make(map[string]*breaker)
	}
	b, ok := c.breakers[id]
	if !ok {
		th := c.BreakerThreshold
		if th == 0 {
			th = 5
		}
		b = &breaker{
			threshold: th,
			now:       c.nowFn,
			gauge:     c.o.Gauge("breaker_state", "server", id),
		}
		c.breakers[id] = b
	}
	return b
}

// AnyBreakerOpen reports whether any server's circuit breaker is
// currently open — the client-side signal that some slice of the store
// is rejecting traffic. Serving tiers use it to enter degraded-mode
// load shedding before operations start running out of attempts.
func (c *Client) AnyBreakerOpen() bool {
	if c.BreakerThreshold < 0 {
		return false
	}
	c.breakersMu.Lock()
	breakers := make([]*breaker, 0, len(c.breakers))
	for _, b := range c.breakers {
		breakers = append(breakers, b)
	}
	c.breakersMu.Unlock()
	for _, b := range breakers {
		b.mu.Lock()
		open := b.state == breakerOpen
		b.mu.Unlock()
		if open {
			return true
		}
	}
	return false
}

// Refresh refetches META from the master.
func (c *Client) Refresh() error {
	c.mRefreshes.Inc()
	meta, err := c.master.Meta()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.meta = meta
	c.loaded = true
	c.mu.Unlock()
	return nil
}

func (c *Client) invalidate() {
	c.mu.Lock()
	c.loaded = false
	c.mu.Unlock()
}

func (c *Client) cachedMeta() (Meta, error) {
	c.mu.RLock()
	if c.loaded {
		m := c.meta
		c.mu.RUnlock()
		return m, nil
	}
	c.mu.RUnlock()
	if err := c.Refresh(); err != nil {
		return Meta{}, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.meta, nil
}

// Meta returns the client's current routing view (refreshing if empty).
func (c *Client) Meta() (Meta, error) { return c.cachedMeta() }

// connFor resolves a connection to the server META names id.
func (c *Client) connFor(m Meta, id string) (ServerConn, error) {
	for _, p := range m.Servers {
		if p.ID == id {
			return c.reg.Resolve(p)
		}
	}
	return nil, fmt.Errorf("dstore: META names unknown server %q", id)
}

// topoRestartCap bounds, in multiples of the attempt budget, how many
// master-outage rounds retry forgives before charging them anyway. It is
// a backstop against pathological master churn, not a budget the normal
// path ever approaches.
const topoRestartCap = 32

// retry is the client's one retry loop. Each round checks ctx, reads
// META and runs step under that view. step keeps whatever part of the
// operation succeeded, so a later round redoes only what failed. A
// retryable failure invalidates META, counts a retry, backs off and
// charges an attempt; a master outage (a takeover in flight) is not
// charged, nor is a NotServing under the same META epoch as the round
// before (a region move in flight: its servers have flipped roles and
// its commit is yet to publish), up to topoRestartCap*MaxAttempts times,
// so a takeover or a move costs wall-clock time, never op attempts. Running out of attempts wraps the
// last error in ErrExhausted, so callers can tell a liveness problem
// ("the cluster never healed while I retried") from a plain store
// error, which returns as is.
//
// A dead caller — canceled or past its deadline — consumes no attempt
// and surfaces as the context's own error wrapped, not as ErrExhausted:
// the caller gave up, the cluster did not fail. step's RPCs run under
// the same ctx, so the caller's deadline reaches the wire
// (httperr.DeadlineHeader) and region servers abort work nobody waits
// for.
func (c *Client) retry(ctx context.Context, op string, step func(Meta) error) error {
	c.countOp(op)
	refreshesBefore := c.mRefreshes.Value()
	defer func() {
		c.refreshPerOpH.Observe(float64(c.mRefreshes.Value() - refreshesBefore))
	}()
	var err error
	spins := 0
	lastEpoch := int64(-1)
	for attempt := 0; attempt < c.maxAttempts(); {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", op, cerr)
		}
		var m Meta
		if m, err = c.cachedMeta(); err == nil {
			if err = step(m); err == nil {
				return nil
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", op, cerr)
		}
		if !retryable(err) {
			return err
		}
		c.mRetries.Inc()
		c.invalidate()
		if cerr := c.sleepBackoff(ctx, attempt); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", op, cerr)
		}
		// NotServing twice under one META epoch: the servers are ahead
		// of the catalog, a move between its flip and its commit.
		inFlight := hstore.IsNotServing(err) && m.Epoch == lastEpoch
		if (masterOutage(err) || inFlight) && spins < topoRestartCap*c.maxAttempts() {
			spins++
		} else {
			attempt++
		}
		lastEpoch = m.Epoch
	}
	c.mGiveUps.Inc()
	return fmt.Errorf("%w: %s giving up after %d attempts: %w", ErrExhausted, op, c.maxAttempts(), err)
}

// do runs one call against the server META names id, through the
// server's circuit breaker: an open breaker rejects the call locally
// (errBreakerOpen, retryable) and every admitted call's outcome trains
// the breaker.
func (c *Client) do(m Meta, id string, call func(ServerConn) error) error {
	conn, err := c.connFor(m, id)
	if err != nil {
		return err
	}
	br := c.breakerFor(id)
	if br == nil {
		return call(conn)
	}
	if !br.allow() {
		return errBreakerOpen
	}
	err = call(conn)
	br.record(breakerFailure(err))
	return err
}

// onPrimary runs call against the primary of the region that owns row
// under m.
func (c *Client) onPrimary(m Meta, table, row string, call func(ServerConn) error) error {
	g, err := c.routeIn(m, table, row)
	if err != nil {
		return err
	}
	return c.do(m, g.Primary, call)
}

// CreateTable asks the master to lay out a new table.
func (c *Client) CreateTable(ctx context.Context, table string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dstore: create table interrupted: %w", err)
	}
	err := c.master.CreateTable(table)
	c.invalidate()
	return err
}

// Put writes one cell through the owning primary. Cancellation aborts
// the retry loop without consuming an attempt.
func (c *Client) Put(ctx context.Context, table, row, column string, value []byte) error {
	return c.retry(ctx, "put", func(m Meta) error {
		return c.onPrimary(m, table, row, func(conn ServerConn) error {
			return conn.Put(ctx, table, row, column, value)
		})
	})
}

// PutRow writes all columns of a row in one replication round.
func (c *Client) PutRow(ctx context.Context, table string, r hstore.Row) error {
	return c.retry(ctx, "putrow", func(m Meta) error {
		return c.onPrimary(m, table, r.Key, func(conn ServerConn) error {
			return conn.BatchPut(ctx, table, []hstore.Row{r})
		})
	})
}

// BatchPut writes many rows, grouped per primary server so each server
// sees one batch per round; only the groups that failed are retried,
// with a refreshed META view, until every row is acked or attempts run
// out. Cancellation aborts between rounds without consuming an attempt.
func (c *Client) BatchPut(ctx context.Context, table string, rows []hstore.Row) error {
	return c.retry(ctx, "batchput", func(m Meta) (err error) {
		rows, err = byPrimary(c, m, table, rows,
			func(r hstore.Row) string { return r.Key },
			func(conn ServerConn, group []hstore.Row) error {
				return conn.BatchPut(ctx, table, group)
			})
		return err
	})
}

// MultiGet point-reads many rows, grouped per primary server so each
// server answers one batch per round. Both result slices are aligned
// with the requested keys; only the groups that failed are retried,
// with a refreshed META view, until every row is answered or attempts
// run out. Cancellation aborts between rounds without consuming an
// attempt, and the caller's deadline rides to each server, which checks
// it while assembling the batch.
func (c *Client) MultiGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	out := make([]hstore.Row, len(rows))
	found := make([]bool, len(rows))
	pending := make([]int, len(rows))
	for i := range rows {
		pending[i] = i
	}
	err := c.retry(ctx, "multiget", func(m Meta) (err error) {
		pending, err = byPrimary(c, m, table, pending,
			func(i int) string { return rows[i] },
			func(conn ServerConn, idx []int) error {
				keys := make([]string, len(idx))
				for k, i := range idx {
					keys[k] = rows[i]
				}
				got, ok, err := conn.BatchGet(ctx, table, keys)
				if err != nil {
					return err
				}
				for k, i := range idx {
					out[i], found[i] = got[k], ok[k]
				}
				return nil
			})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, found, nil
}

// byPrimary is one round of BatchPut or MultiGet: it groups items by
// the primary that owns key(item) under m and makes one call per
// server, in sorted-id order, through the server's breaker. It returns
// the items of the groups whose call failed retryably, with the last
// such error; a non-retryable error ends the round at once.
func byPrimary[T any](c *Client, m Meta, table string, items []T,
	key func(T) string, call func(conn ServerConn, group []T) error) ([]T, error) {
	groups := make(map[string][]T)
	for _, it := range items {
		g, err := c.routeIn(m, table, key(it))
		if err != nil {
			return nil, err
		}
		groups[g.Primary] = append(groups[g.Primary], it)
	}
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var failed []T
	var lastErr error
	for _, id := range ids {
		err := c.do(m, id, func(conn ServerConn) error { return call(conn, groups[id]) })
		if err != nil {
			if !retryable(err) {
				return nil, err
			}
			lastErr = err
			failed = append(failed, groups[id]...)
		}
	}
	return failed, lastErr
}

// routeIn locates the owning region in an already-fetched META view.
func (c *Client) routeIn(m Meta, table, row string) (RegionInfo, error) {
	regions, ok := m.Tables[table]
	if !ok {
		return RegionInfo{}, fmt.Errorf("dstore: table %q does not exist", table)
	}
	i := sort.Search(len(regions), func(i int) bool {
		g := regions[i]
		return g.EndKey == "" || row < g.EndKey
	})
	if i >= len(regions) {
		return RegionInfo{}, fmt.Errorf("dstore: no region for %s/%q", table, row)
	}
	return regions[i], nil
}

// Get fetches one row. Cancellation aborts the retry loop without
// consuming an attempt.
func (c *Client) Get(ctx context.Context, table, row string) (out hstore.Row, found bool, err error) {
	err = c.retry(ctx, "get", func(m Meta) error {
		return c.onPrimary(m, table, row, func(conn ServerConn) (err error) {
			out, found, err = conn.Get(ctx, table, row)
			return err
		})
	})
	return out, found, err
}

// DeleteRow tombstones every column of the row.
func (c *Client) DeleteRow(ctx context.Context, table, row string) error {
	return c.retry(ctx, "deleterow", func(m Meta) error {
		return c.onPrimary(m, table, row, func(conn ServerConn) error {
			return conn.DeleteRow(ctx, table, row)
		})
	})
}

// scanFanout bounds how many per-region scan RPCs one Scan runs
// concurrently.
const scanFanout = 4

// scanTask is one region's share of a table scan, with the scan range
// clamped to the region's bounds, and the region's answer.
type scanTask struct {
	g    RegionInfo
	s, e string
	rows []hstore.Row
	err  error
}

// scanTasks appends to tasks the per-region tasks of [start, end) under
// m, in key order.
func (c *Client) scanTasks(tasks []scanTask, m Meta, table, start, end string) ([]scanTask, error) {
	regions, ok := m.Tables[table]
	if !ok {
		return nil, fmt.Errorf("dstore: table %q does not exist", table)
	}
	for _, g := range regions {
		if end != "" && g.StartKey >= end {
			break
		}
		if g.EndKey != "" && g.EndKey <= start {
			continue
		}
		s, e := start, end
		if s < g.StartKey {
			s = g.StartKey
		}
		if g.EndKey != "" && (e == "" || e > g.EndKey) {
			e = g.EndKey
		}
		tasks = append(tasks, scanTask{g: g, s: s, e: e})
	}
	return tasks, nil
}

// Scan returns the rows of [start, end) matching the filter, fanning
// out to the owning regions with the filter pushed down to each one.
// Up to scanFanout region RPCs run at a time. A region that answers
// keeps its rows; a round that hits a stale route re-plans only the
// ranges still unanswered against fresh META, so a mid-scan move costs
// one more RPC to the moved region, not a second pass over every
// region. Each region fetches up to the full limit, and at the end the
// answers are stitched in key order and truncated to the limit, so the
// result is the key-ordered prefix a region-by-region walk would
// return. The caller's context rides into every per-region RPC, so
// cancellation stops region-server merges mid-scan and the fan-out
// stops launching work for a departed caller. A Project filter trims
// the rows at the region servers, so only its columns travel. Each row
// owns its Columns map; the values are read-only, since an in-process
// region server hands out slices of its blocks and memstore
// (hstore.Server.Scan).
func (c *Client) Scan(ctx context.Context, table, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	var done []scanTask
	todo := []scanTask{{s: start, e: end}}
	err := c.retry(ctx, "scan", func(m Meta) error {
		var tasks []scanTask
		for _, t := range todo {
			var err error
			if tasks, err = c.scanTasks(tasks, m, table, t.s, t.e); err != nil {
				return err
			}
		}
		if len(tasks) > 0 {
			c.hFanout.Observe(float64(len(tasks)))
		}
		sem := make(chan struct{}, scanFanout)
		var wg sync.WaitGroup
		for i := range tasks {
			sem <- struct{}{}
			wg.Add(1)
			go func(t *scanTask) {
				defer func() { <-sem; wg.Done() }()
				// A canceled caller stops the fan-out from launching more
				// region RPCs; regions already in flight abort server-side
				// via the same context.
				if t.err = ctx.Err(); t.err != nil {
					return
				}
				t.err = c.do(m, t.g.Primary, func(conn ServerConn) (err error) {
					t.rows, err = conn.Scan(ctx, table, t.g.ID, t.s, t.e, f, limit)
					return err
				})
			}(&tasks[i])
		}
		wg.Wait()
		// Keep the answers; surface the first error in key order.
		todo = todo[:0]
		var err error
		for _, t := range tasks {
			if t.err == nil {
				done = append(done, t)
				continue
			}
			if err == nil {
				err = t.err
			}
			todo = append(todo, t)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(done, func(a, b scanTask) int { return strings.Compare(a.s, b.s) })
	var out []hstore.Row
	for _, t := range done {
		out = append(out, t.rows...)
		if limit > 0 && len(out) >= limit {
			return out[:limit], nil
		}
	}
	return out, nil
}

// Flush flushes every region server named by META.
func (c *Client) Flush(table string) error {
	return c.forEachServer(func(conn ServerConn) error {
		err := conn.Flush(table)
		if retryable(err) {
			return nil // a dead server has nothing worth flushing
		}
		return err
	})
}

// Stats sums the transfer counters of every live region server.
func (c *Client) Stats() (hstore.TransferStats, error) {
	var total hstore.TransferStats
	err := c.forEachServer(func(conn ServerConn) error {
		st, err := conn.Stats()
		if err != nil {
			if retryable(err) {
				return nil
			}
			return err
		}
		total.RowsScanned += st.RowsScanned
		total.RowsReturned += st.RowsReturned
		total.BytesReturned += st.BytesReturned
		return nil
	})
	return total, err
}

// ResetStats zeroes the counters of every live region server.
func (c *Client) ResetStats() error {
	return c.forEachServer(func(conn ServerConn) error {
		err := conn.ResetStats()
		if retryable(err) {
			return nil
		}
		return err
	})
}

func (c *Client) forEachServer(fn func(ServerConn) error) error {
	m, err := c.cachedMeta()
	if err != nil {
		return err
	}
	for _, p := range m.Servers {
		conn, err := c.reg.Resolve(p)
		if err != nil {
			return err
		}
		if err := fn(conn); err != nil {
			return err
		}
	}
	return nil
}
