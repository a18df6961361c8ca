package dstore

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
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
// master and retries with exponential backoff. Its method set matches
// hstore.Client, so core.NewStore accepts either.
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

// Retries reports how many times operations re-routed after a
// retryable failure — the observable cost of moves and failovers.
func (c *Client) Retries() int64 { return c.mRetries.Value() }

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

// BreakerState reports the named server's current breaker state
// (breakerClosed when breakers are disabled or the server is unknown).
func (c *Client) BreakerState(id string) int {
	if c.BreakerThreshold < 0 {
		return breakerClosed
	}
	c.breakersMu.Lock()
	b, ok := c.breakers[id]
	c.breakersMu.Unlock()
	if !ok {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// AnyBreakerOpen reports whether any server's circuit breaker is
// currently open — the client-side signal that some slice of the store
// is rejecting traffic. Serving tiers use it to enter degraded-mode
// load shedding before retry loops start running out of attempts.
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

// do runs one call against the named server through its circuit
// breaker: an open breaker rejects the call locally (errBreakerOpen,
// retryable) and every admitted call's outcome trains the breaker.
func (c *Client) do(id string, call func() error) error {
	br := c.breakerFor(id)
	if br == nil {
		return call()
	}
	if !br.allow() {
		return errBreakerOpen
	}
	err := call()
	br.record(breakerFailure(err))
	return err
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

// route finds the region owning row and a connection to its primary.
func (c *Client) route(table, row string) (RegionInfo, ServerConn, error) {
	m, err := c.cachedMeta()
	if err != nil {
		return RegionInfo{}, nil, err
	}
	g, err := c.routeIn(m, table, row)
	if err != nil {
		return RegionInfo{}, nil, err
	}
	conn, err := c.connFor(m, g.Primary)
	if err != nil {
		return RegionInfo{}, nil, err
	}
	return g, conn, nil
}

// topoRestartCap bounds, in multiples of the attempt budget, how many
// forgiven restarts withRetry tolerates before charging every failure
// anyway. It is a backstop against pathological master or epoch churn,
// not a budget the normal path ever approaches.
const topoRestartCap = 32

// withRetry runs op, refreshing META and backing off after each
// retryable failure. Exhausting the attempt budget on a retryable error
// wraps it in ErrExhausted, so callers can tell a liveness problem ("the
// cluster never healed while I retried") from a plain store error.
//
// A dead caller — canceled or past its deadline — consumes no attempt
// and surfaces as the context's own error wrapped, not as ErrExhausted:
// the caller gave up, the cluster did not fail. op's RPCs run under the
// same ctx, so the caller's deadline reaches the wire
// (httperr.DeadlineHeader) and region servers abort work nobody waits
// for.
//
// A failed attempt is charged against MaxAttempts unless it is forgiven,
// and up to topoRestartCap*MaxAttempts failures are. A master takeover
// (masterOutage) is always forgiven: it costs wall-clock time, never op
// attempts. A non-nil epoch arms a second pardon, for operations whose
// one attempt spans many regions at once (the scan fan-out). Such an
// attempt needs the whole keyspace healthy at a single instant, so under
// a steady stream of rebalances it can lose the race against the next
// fence every time and exhaust a budget that a region-at-a-time visit
// would have survived. op stores the META epoch it is about to run under
// in *epoch; when the attempt fails retryably the loop refetches META
// (blocking on the master until any in-flight move commits) and
// compares. Epoch advanced — the restart is the designed response to a
// concurrent topology change, so no attempt is consumed. Epoch unchanged
// — the cluster is actually unhealthy and the failure burns an attempt.
// Forgiven or not, every retryable failure invalidates META, counts a
// retry, backs off, and rebuilds the operation from scratch.
func (c *Client) withRetry(ctx context.Context, opName string, epoch *int64, op func() error) error {
	c.countOp(opName)
	refreshesBefore := c.mRefreshes.Value()
	defer func() {
		c.refreshPerOpH.Observe(float64(c.mRefreshes.Value() - refreshesBefore))
	}()
	var err error
	spins := 0
	for attempt := 0; attempt < c.maxAttempts(); {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", opName, cerr)
		}
		if epoch != nil {
			*epoch = 0
		}
		if err = op(); err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", opName, cerr)
		}
		if !retryable(err) {
			return err
		}
		c.mRetries.Inc()
		c.invalidate()
		forgiven := spins < topoRestartCap*c.maxAttempts() && (masterOutage(err) || c.epochAdvanced(epoch))
		if cerr := c.sleepBackoff(ctx, attempt); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", opName, cerr)
		}
		if forgiven {
			spins++
		} else {
			attempt++
		}
	}
	c.mGiveUps.Inc()
	return fmt.Errorf("%w: giving up after %d attempts: %w", ErrExhausted, c.maxAttempts(), err)
}

// epochAdvanced is withRetry's epoch probe: it refetches META and
// reports whether its epoch moved past the one a failed attempt recorded
// in *epoch (0: the attempt failed before reading META). A nil epoch
// never probes.
func (c *Client) epochAdvanced(epoch *int64) bool {
	if epoch == nil {
		return false
	}
	m, err := c.cachedMeta()
	return err == nil && *epoch != 0 && m.Epoch > *epoch
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
	return c.withRetry(ctx, "put", nil, func() error {
		g, conn, err := c.route(table, row)
		if err != nil {
			return err
		}
		return c.do(g.Primary, func() error {
			return conn.Put(ctx, table, row, column, value)
		})
	})
}

// PutRow writes all columns of a row in one replication round.
func (c *Client) PutRow(ctx context.Context, table string, r hstore.Row) error {
	return c.withRetry(ctx, "putrow", nil, func() error {
		g, conn, err := c.route(table, r.Key)
		if err != nil {
			return err
		}
		return c.do(g.Primary, func() error {
			return conn.BatchPut(ctx, table, []hstore.Row{r})
		})
	})
}

// BatchPut writes many rows, grouped per primary server so each server
// sees one batch per round; failed groups are retried with a refreshed
// META view until every row is acked or attempts run out. Cancellation
// aborts between rounds without consuming an attempt.
func (c *Client) BatchPut(ctx context.Context, table string, rows []hstore.Row) error {
	c.countOp("batchput")
	return groupedRounds(ctx, c, "batch put", "unacked", table, rows,
		func(r hstore.Row) string { return r.Key },
		func(ctx context.Context, conn ServerConn, group []hstore.Row) error {
			return conn.BatchPut(ctx, table, group)
		})
}

// MultiGet point-reads many rows, grouped per primary server so each
// server answers one batch per round. Both result slices are aligned
// with the requested keys; failed groups are retried with a refreshed
// META view until every row is answered or attempts run out.
// Cancellation aborts between rounds without consuming an attempt, and
// the caller's deadline rides to each server, which checks it while
// assembling the batch.
func (c *Client) MultiGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	c.countOp("multiget")
	out := make([]hstore.Row, len(rows))
	found := make([]bool, len(rows))
	all := make([]int, len(rows))
	for i := range rows {
		all[i] = i
	}
	err := groupedRounds(ctx, c, "multi-get", "unanswered", table, all,
		func(i int) string { return rows[i] },
		func(ctx context.Context, conn ServerConn, idx []int) error {
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
	if err != nil {
		return nil, nil, err
	}
	return out, found, nil
}

// groupedRounds is the round loop BatchPut and MultiGet share. Each
// round groups the still-pending items by the primary that owns
// key(item) under the current META view, visits the servers in sorted-id
// order with one call each through the server's breaker, and keeps the
// groups whose call failed retryably for the next round, which runs
// against refreshed META after a backoff. op names the operation and
// pending its leftover items ("unacked") in errors. A master outage
// (takeover in flight) while fetching META heals on wall-clock time
// without burning attempts, up to topoRestartCap*MaxAttempts times;
// any other non-retryable error is final.
func groupedRounds[T any](ctx context.Context, c *Client, op, pending, table string, items []T,
	key func(T) string, call func(ctx context.Context, conn ServerConn, group []T) error) error {
	remaining := items
	var lastErr error
	spins := 0
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", op, cerr)
		}
		m, err := c.cachedMeta()
		outage := err != nil
		if outage {
			if !masterOutage(err) {
				return err
			}
			lastErr = err
		} else {
			groups := make(map[string][]T)
			for _, it := range remaining {
				g, err := c.routeIn(m, table, key(it))
				if err != nil {
					return err
				}
				groups[g.Primary] = append(groups[g.Primary], it)
			}
			ids := make([]string, 0, len(groups))
			for id := range groups {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			var failed []T
			for _, id := range ids {
				conn, err := c.connFor(m, id)
				if err != nil {
					return err
				}
				if err := c.do(id, func() error {
					return call(ctx, conn, groups[id])
				}); err != nil {
					if !retryable(err) {
						return err
					}
					lastErr = err
					failed = append(failed, groups[id]...)
				}
			}
			if len(failed) == 0 {
				return nil
			}
			remaining = failed
			c.invalidate()
		}
		c.mRetries.Inc()
		if cerr := c.sleepBackoff(ctx, attempt); cerr != nil {
			return fmt.Errorf("dstore: %s interrupted: %w", op, cerr)
		}
		if outage && spins < topoRestartCap*c.maxAttempts() {
			spins++
			attempt--
		}
	}
	c.mGiveUps.Inc()
	return fmt.Errorf("%w: %s gave up with %d rows %s: %w", ErrExhausted, op, len(remaining), pending, lastErr)
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
func (c *Client) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	var out hstore.Row
	var found bool
	err := c.withRetry(ctx, "get", nil, func() error {
		g, conn, err := c.route(table, row)
		if err != nil {
			return err
		}
		return c.do(g.Primary, func() (err error) {
			out, found, err = conn.Get(ctx, table, row)
			return err
		})
	})
	return out, found, err
}

// DeleteRow tombstones every column of the row.
func (c *Client) DeleteRow(ctx context.Context, table, row string) error {
	return c.withRetry(ctx, "deleterow", nil, func() error {
		g, conn, err := c.route(table, row)
		if err != nil {
			return err
		}
		return c.do(g.Primary, func() error {
			return conn.DeleteRow(ctx, table, row)
		})
	})
}

// scanFanout bounds how many per-region scan RPCs one Scan runs
// concurrently.
const scanFanout = 4

// scanTask is one region's share of a table scan, with the scan range
// clamped to the region's bounds.
type scanTask struct {
	g    RegionInfo
	s, e string
}

// scanTasks computes the per-region tasks of [start, end) in key order.
func (c *Client) scanTasks(m Meta, table, start, end string) ([]scanTask, error) {
	regions, ok := m.Tables[table]
	if !ok {
		return nil, fmt.Errorf("dstore: table %q does not exist", table)
	}
	var tasks []scanTask
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

// scanRegion runs one region's scan RPC through the primary's breaker.
func (c *Client) scanRegion(ctx context.Context, m Meta, t scanTask, table string, f hstore.Filter, limit int) (rows []hstore.Row, err error) {
	conn, err := c.connFor(m, t.g.Primary)
	if err != nil {
		return nil, err
	}
	err = c.do(t.g.Primary, func() (e error) {
		rows, e = conn.Scan(ctx, table, t.g.ID, t.s, t.e, f, limit)
		return e
	})
	return rows, err
}

// Scan returns the rows of [start, end) matching the filter, fanning
// out to the owning regions with the filter pushed down to each one.
// Up to scanFanout regions are scanned concurrently. Each region
// fetches up to the full limit, and the results are stitched back in
// region order and truncated to the limit, so the answer is the
// key-ordered prefix a region-by-region walk would return. A stale
// route anywhere restarts the whole scan against fresh META (partial
// fan-out results are discarded, never returned); restarts forced by a
// move that committed mid-scan do not consume retry attempts (see
// withRetry's epoch probe), so a busy rebalancer cannot starve wide
// scans. The caller's context rides into every per-region RPC, so
// cancellation stops region-server merges mid-scan and the fan-out
// stops launching work for a departed caller. A Project filter trims
// the rows at the region servers, so only its columns travel. Each row
// owns its Columns map; the values are read-only, since an in-process
// region server hands out slices of its blocks and memstore
// (hstore.Server.Scan).
func (c *Client) Scan(ctx context.Context, table, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	var out []hstore.Row
	var epoch int64
	err := c.withRetry(ctx, "scan", &epoch, func() error {
		out = nil
		m, err := c.cachedMeta()
		if err != nil {
			return err
		}
		epoch = m.Epoch
		tasks, err := c.scanTasks(m, table, start, end)
		if err != nil {
			return err
		}
		if len(tasks) == 0 {
			return nil
		}
		c.hFanout.Observe(float64(len(tasks)))
		results := make([][]hstore.Row, len(tasks))
		errs := make([]error, len(tasks))
		sem := make(chan struct{}, scanFanout)
		var wg sync.WaitGroup
		for i, t := range tasks {
			wg.Add(1)
			go func(i int, t scanTask) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// A canceled caller stops the fan-out from launching more
				// region RPCs; regions already in flight abort server-side
				// via the same context.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				results[i], errs[i] = c.scanRegion(ctx, m, t, table, f, limit)
			}(i, t)
		}
		wg.Wait()
		// Surface the first error in region order, deterministically.
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, rows := range results {
			out = append(out, rows...)
			if limit > 0 && len(out) >= limit {
				out = out[:limit]
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
