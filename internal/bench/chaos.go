package bench

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"pstorm/internal/chaos"
	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/obs"
)

// chaosKeys is the number of rows the chaos workload writes; sized so
// the smoke run stays fast while still crossing every region.
const chaosKeys = 150

// chaosLease is the leader lease of the bench cluster's 3-master
// electorate. Failover time is measured on the injected clock and
// self-checked against 3×lease: a takeover slower than that means the
// election is stalling rather than waiting out the lease.
const chaosLease = 4 * time.Second

// Feature-type prefixes of the Table 5.1 row-key layout, used to shape
// the synthetic workload like real PutProfile traffic.
var dstoreFtypes = []string{"costmap", "costred", "dynmap", "dynred", "meta", "statmap", "statred"}

// wallNow and wallSince time the run for the "ms" column, which
// measures this machine's actual elapsed time, so an injected clock
// would be meaningless here; everything derived from the seed stays
// deterministic.
func wallNow() time.Time {
	return time.Now() //pstorm:allow clockcheck benchmarks measure real elapsed wall time
}

func wallSince(start time.Time) time.Duration {
	return time.Since(start) //pstorm:allow clockcheck benchmarks measure real elapsed wall time
}

// chaosClock hand-cranks the master's liveness clock so fault counts
// are a function of the seed alone, never of machine speed.
type chaosClock struct{ t time.Time }

func (c *chaosClock) now() time.Time          { return c.t }
func (c *chaosClock) advance(d time.Duration) { c.t = c.t.Add(d) }

type chaosStats struct {
	schedule    []string
	drops       int
	delays      int
	acked       int
	wrong       int
	lost        int
	retries     int64
	corruptions int64
	rebuilds    int64
	failover    time.Duration // injected-clock leader takeover time
	elapsed     time.Duration
	snap        obs.Snapshot
}

// RunChaos is the chaos smoke experiment: a seeded fault barrage
// (dropped and delayed RPCs, an sstable corruption, a server crash)
// against a live 3-server cluster. The workload tracks every
// acknowledged write and re-reads all of them after healing; any wrong
// or lost row fails the experiment. Each seed runs twice and the fault
// schedules must replay identically.
func RunChaos(e *Env) ([]*Table, error) {
	t := &Table{
		ID:    "chaos",
		Title: "Deterministic chaos: faults injected, detected, healed",
		Columns: []string{"seed", "faults", "drops", "delays", "retries",
			"corruptions", "rebuilds", "acked", "wrong", "lost", "replay",
			"master_failover_ms", "ms"},
		Notes: []string{
			"3 masters + 3 servers, replication 2; 8% drop / 5% delay per RPC; one sstable corruption + one server kill + one leader-master kill per run",
			"wrong/lost must be 0: every acked write reads back with its exact bytes after healing",
			"replay: each seed runs twice; the injected fault schedules must be identical",
			"master_failover_ms is injected-clock time from leader kill to standby promotion, self-checked against 3x the 4s lease",
		},
	}
	for _, seed := range []int64{e.Seed, e.Seed + 1} {
		s1, err := runChaosOnce(seed)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos seed=%d: %w", seed, err)
		}
		s2, err := runChaosOnce(seed)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos seed=%d (replay): %w", seed, err)
		}
		replay := "identical"
		if !reflect.DeepEqual(s1.schedule, s2.schedule) {
			return nil, fmt.Errorf("bench: chaos seed=%d: same-seed fault schedules diverged (%d vs %d entries)",
				seed, len(s1.schedule), len(s2.schedule))
		}
		if s1.wrong > 0 || s1.lost > 0 {
			return nil, fmt.Errorf("bench: chaos seed=%d: %d wrong reads, %d lost rows", seed, s1.wrong, s1.lost)
		}
		e.RecordMetrics(fmt.Sprintf("chaos/seed=%d", seed), s1.snap)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d", len(s1.schedule)),
			fmt.Sprintf("%d", s1.drops),
			fmt.Sprintf("%d", s1.delays),
			fmt.Sprintf("%d", s1.retries),
			fmt.Sprintf("%d", s1.corruptions),
			fmt.Sprintf("%d", s1.rebuilds),
			fmt.Sprintf("%d", s1.acked),
			fmt.Sprintf("%d", s1.wrong),
			fmt.Sprintf("%d", s1.lost),
			replay,
			fmt.Sprintf("%.0f", s1.failover.Seconds()*1000),
			fmt.Sprintf("%.0f", s1.elapsed.Seconds()*1000),
		})
	}
	return []*Table{t}, nil
}

func runChaosOnce(seed int64) (*chaosStats, error) {
	stats := &chaosStats{}
	startWall := wallNow()
	eng := chaos.New(chaos.Options{
		Seed:        seed,
		DropProb:    0.08,
		LatencyProb: 0.05,
		Latency:     200 * time.Microsecond,
	})
	eng.Disarm()
	clock := &chaosClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
	c, err := dstore.StartLocalCluster(dstore.LocalOptions{
		Servers:          3,
		Replication:      2,
		Masters:          3,
		HeartbeatTimeout: 2 * time.Second,
		LeaseDuration:    chaosLease,
		Seed:             seed,
		WrapConn:         eng.WrapConn,
		WrapPeerConn:     eng.WrapPeerConn,
		Now:              clock.now,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cl := c.Client()
	cl.RetryBase = 50 * time.Microsecond
	cl.MaxAttempts = 8
	cl.BreakerThreshold = -1 // keep the schedule independent of wall-clock cooldowns
	if err := cl.CreateTable(benchCtx(), core.TableName); err != nil {
		return nil, err
	}

	key := func(i int) string {
		return fmt.Sprintf("%s/job-%04d", dstoreFtypes[i%len(dstoreFtypes)], i)
	}
	val := func(k string) string { return "v-" + k }
	acked := make(map[string]bool)
	put := func(k string) {
		if err := cl.Put(benchCtx(), core.TableName, k, "f", []byte(val(k))); err == nil {
			acked[k] = true
		}
	}
	check := func(k string) {
		row, found, err := cl.Get(benchCtx(), core.TableName, k)
		if err != nil {
			return // unavailability under chaos is tolerated; lies are counted
		}
		if !found {
			if acked[k] {
				stats.wrong++
			}
			return
		}
		if string(row.Columns["f"]) != val(k) {
			stats.wrong++
		}
	}
	// Heartbeats and health rounds go through the failover-aware conn /
	// the live leader, so they keep working after the leader kill below.
	mc := c.MasterConn()
	beatLive := func() error {
		for _, rs := range c.Servers {
			if !rs.Stopped() {
				if err := mc.Heartbeat(rs.ID()); err != nil {
					return err
				}
			}
		}
		return nil
	}
	tickMasters := func(now time.Time) {
		for _, m := range c.Masters {
			if !m.Stopped() && m.IsLeader() {
				m.ElectionTick(now)
			}
		}
		for _, m := range c.Masters {
			if !m.Stopped() && !m.IsLeader() {
				m.ElectionTick(now)
			}
		}
	}

	// Seed a third of the keys fault-free and flush, so corruption has
	// sstables to land in.
	seeded := chaosKeys / 3
	for i := 0; i < seeded; i++ {
		if err := cl.Put(benchCtx(), core.TableName, key(i), "f", []byte(val(key(i)))); err != nil {
			return nil, err
		}
		acked[key(i)] = true
	}
	for _, rs := range c.Servers {
		if err := rs.HStore().Flush(core.TableName); err != nil {
			return nil, err
		}
	}

	eng.Arm()
	mid := seeded + (chaosKeys-seeded)/2
	for i := seeded; i < mid; i++ {
		put(key(i))
		check(key(i))
		check(key((i * 13) % seeded))
	}

	// Corrupt one region copy on its primary and heal through the (also
	// faulty) health path.
	m := c.Master.Meta()
	g := m.Tables[core.TableName][0]
	ps := c.Server(g.Primary)
	if !ps.HStore().CorruptRegionData(core.TableName, g.ID, 64) {
		return nil, fmt.Errorf("no sstable to corrupt in region %d", g.ID)
	}
	// Trip the latch with a direct read (no transport draws).
	if _, _, err := ps.HStore().Get(core.TableName, key(0)); err == nil {
		return nil, fmt.Errorf("read of damaged copy did not fail")
	}
	healed := 0
	for i := 0; i < 40 && healed == 0; i++ {
		healed = c.Master.CheckHealth()
	}
	if healed == 0 {
		return nil, fmt.Errorf("quarantined region never rebuilt")
	}

	// Crash a server outside that region's (rebuilt) group.
	inGroup := map[string]bool{g.Primary: true}
	for _, f := range g.Followers {
		inGroup[f] = true
	}
	for _, rs := range c.Servers {
		if !inGroup[rs.ID()] {
			c.KillServer(rs.ID())
			break
		}
	}
	clock.advance(3 * time.Second)
	if err := beatLive(); err != nil {
		return nil, err
	}
	for i := 0; i < 40; i++ {
		c.Master.CheckLiveness(clock.now())
	}

	for i := mid; i < chaosKeys; i++ {
		put(key(i))
		check(key(i))
		check(key((i * 17) % chaosKeys))
	}

	// Disaster 3: kill the leader master mid-workload. The standbys —
	// their peer pings subject to the same drop schedule — must wait out
	// the lease and promote a successor, measured on the injected clock;
	// the data plane keeps serving from routing caches throughout.
	tickMasters(clock.now()) // standbys mirror the catalog before the crash
	lead := c.Leader()
	if lead == nil {
		return nil, fmt.Errorf("no leader master before the kill")
	}
	failStart := clock.now()
	c.KillMaster(lead.MasterID())
	var promoted *dstore.Master
	for i := 0; i < 40 && promoted == nil; i++ {
		clock.advance(500 * time.Millisecond)
		tickMasters(clock.now())
		for _, m := range c.Masters {
			if !m.Stopped() && m.IsLeader() {
				promoted = m
			}
		}
	}
	if promoted == nil {
		return nil, fmt.Errorf("no standby promoted after the leader kill")
	}
	stats.failover = clock.now().Sub(failStart)
	if stats.failover > 3*chaosLease {
		return nil, fmt.Errorf("master failover took %v of injected time, bound %v",
			stats.failover, 3*chaosLease)
	}
	for i := 0; i < 3; i++ {
		tickMasters(clock.now()) // settle any losing candidate behind the winner
	}
	// The re-routed control plane still acks writes.
	for i := chaosKeys; i < chaosKeys+10; i++ {
		put(key(i))
		check(key(i))
	}

	// Heal completely, then audit every acked key.
	eng.Disarm()
	clock.advance(500 * time.Millisecond)
	if err := beatLive(); err != nil {
		return nil, err
	}
	if lead = c.Leader(); lead == nil {
		return nil, fmt.Errorf("no leader master after healing")
	}
	for i := 0; i < 3; i++ {
		lead.CheckLiveness(clock.now())
		lead.CheckHealth()
	}
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		row, found, err := cl.Get(benchCtx(), core.TableName, k)
		switch {
		case err != nil || !found:
			stats.lost++
		case string(row.Columns["f"]) != val(k):
			stats.wrong++
		}
	}

	stats.schedule = eng.Schedule()
	for _, f := range stats.schedule {
		switch {
		case strings.HasSuffix(f, ":drop"):
			stats.drops++
		case strings.HasSuffix(f, ":latency"):
			stats.delays++
		}
	}
	stats.acked = len(acked)
	stats.snap = c.Snapshot()
	stats.retries = stats.snap.Counters["dstore_client_retries_total"]
	stats.corruptions = stats.snap.Counters["store_corruptions_detected_total"]
	stats.rebuilds = stats.snap.Counters["quarantine_rebuilds_total"]
	stats.elapsed = wallSince(startWall)
	if stats.corruptions < 1 || stats.rebuilds < 1 {
		return nil, fmt.Errorf("corruption path not exercised (corruptions=%d rebuilds=%d)",
			stats.corruptions, stats.rebuilds)
	}
	return stats, nil
}
