package chaos

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/profile"
)

// haClock is the injected control-plane clock for the master-failover
// scenario. Unlike scenarioClock it is mutex-guarded: the workload
// goroutines run concurrently with the main goroutine's advances, and
// masters stamp heartbeats and journal records off this clock.
type haClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *haClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *haClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// violations collects consistency failures observed by concurrent
// workload goroutines; the main goroutine asserts emptiness at the end
// (goroutines must not call t.Fatal).
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) add(format string, args ...any) {
	v.mu.Lock()
	v.list = append(v.list, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

func (v *violations) snapshot() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.list...)
}

// tickMasters runs one election tick on every live master, leaders
// first so standbys fold a fresh leader view (same discipline as the
// dstore election tests).
func tickMasters(c *dstore.LocalCluster, now time.Time) {
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

// liveLeaders returns every live master currently in the leader role.
func liveLeaders(c *dstore.LocalCluster) []*dstore.Master {
	var out []*dstore.Master
	for _, m := range c.Masters {
		if !m.Stopped() && m.IsLeader() {
			out = append(out, m)
		}
	}
	return out
}

// assertNoEpochCollision is the scenario's standing invariant: at no
// observation point may two live masters claim leadership at the same
// fencing epoch. (Disjoint epochs are guaranteed by construction —
// each master mints term*n+ownIndex — and this is where a regression
// would surface.)
func assertNoEpochCollision(t *testing.T, c *dstore.LocalCluster) {
	t.Helper()
	byEpoch := map[int64]string{}
	for _, m := range liveLeaders(c) {
		e := m.MasterEpoch()
		if other, ok := byEpoch[e]; ok {
			t.Fatalf("double leadership: %s and %s both lead at epoch %d", other, m.MasterID(), e)
		}
		byEpoch[e] = m.MasterID()
	}
}

// TestChaosMasterFailover is the control-plane acceptance run: a
// 3-master / 3-region-server cluster with an interrupted rebalance and
// concurrent profile-store plus raw-KV load takes a leader kill, then
// a leader partition, under seeded transport faults. The invariants:
// no acked write is ever read back wrong or missing-after-heal, no two
// live masters lead at the same epoch, takeover completes within a
// bounded number of leases, and the successor resumes the rebalance.
// Run it with -race: the workload goroutines overlap every takeover.
func TestChaosMasterFailover(t *testing.T) {
	const (
		hbTimeout = 2 * time.Second
		lease     = 4 * time.Second
	)
	eng := New(Options{
		Seed:        20260809,
		DropProb:    0.05,
		LatencyProb: 0.03,
		Latency:     200 * time.Microsecond,
	})
	eng.Disarm()
	clock := &haClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
	c, err := dstore.StartLocalCluster(dstore.LocalOptions{
		Servers:          3,
		Replication:      2,
		Masters:          3,
		HeartbeatTimeout: hbTimeout,
		LeaseDuration:    lease,
		WrapConn:         eng.WrapConn,
		WrapPeerConn:     eng.WrapPeerConn,
		Now:              clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()
	cl.RetryBase = 50 * time.Microsecond
	cl.MaxAttempts = 8
	cl.BreakerThreshold = -1

	// The profile store rides the same failover-aware client: PutProfile
	// fans a job's features across the split regions, so profile traffic
	// exercises every region family during the takeovers.
	st, err := core.NewStore(context.Background(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}

	viol := &violations{}
	key := func(i int) string { return fmt.Sprintf("%c%03d", "akx"[i%3], i) }
	val := func(k string) string { return "v-" + k }
	mkProfile := func(i int) *profile.Profile {
		p := &profile.Profile{
			JobID: fmt.Sprintf("chaos-%04d", i), JobName: "chaosjob",
			InputBytes: int64(i + 1),
			Map:        profile.NewSide(), Reduce: profile.NewSide(),
		}
		for _, f := range profile.MapDataFlowFeatures {
			p.Map.DataFlow[f] = float64(i + 1)
		}
		return p
	}

	// Phase 0 (disarmed): seed raw rows and a few profiles, then let the
	// standbys mirror the journal.
	for i := 0; i < 30; i++ {
		if err := cl.Put(context.Background(), "t", key(i), "c", []byte(val(key(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := st.PutProfile(context.Background(), mkProfile(i)); err != nil {
			t.Fatal(err)
		}
	}
	tickMasters(c, clock.now())
	if ls := liveLeaders(c); len(ls) != 1 || ls[0].MasterID() != "m-0" {
		t.Fatalf("bootstrap leader = %v, want m-0", ls)
	}

	// An in-flight rebalance for the successor to inherit: pile every
	// primary onto rs-0, then mirror the lopsided catalog before the
	// leader dies mid-way through fixing it.
	leader := c.Master
	for _, table := range []string{"t", core.TableName} {
		for _, g := range leader.Meta().Tables[table] {
			if g.Primary != "rs-0" {
				if _, err := leader.MoveRegion(table, g.ID, "rs-0"); err != nil {
					t.Fatalf("MoveRegion(%s/%d): %v", table, g.ID, err)
				}
			}
		}
	}
	tickMasters(c, clock.now())

	// Concurrent load, running across both takeovers. One goroutine
	// hammers raw rows, one stores and re-reads whole profiles. Both
	// tolerate unavailability while chaos is armed; neither tolerates a
	// successful answer with wrong content.
	eng.Arm()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	ackedMu := sync.Mutex{}
	acked := map[string]bool{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := key(i)
			if err := cl.Put(context.Background(), "t", k, "c", []byte(val(k))); err == nil {
				ackedMu.Lock()
				acked[k] = true
				ackedMu.Unlock()
			}
			probe := key(100 + (i*13)%(i-99))
			row, found, err := cl.Get(context.Background(), "t", probe)
			if err == nil {
				ackedMu.Lock()
				wasAcked := acked[probe]
				ackedMu.Unlock()
				if !found && wasAcked {
					viol.add("%s: acked write read as missing", probe)
				} else if found && string(row.Columns["c"]) != val(probe) {
					viol.add("%s: read %q, want %q", probe, row.Columns["c"], val(probe))
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	profMu := sync.Mutex{}
	ackedProfiles := []int{0, 1, 2, 3, 4} // the phase-0 seeds, so probes always have a target
	wg.Add(1)
	go func() {
		defer wg.Done()
		feat := profile.MapDataFlowFeatures[0]
		for i := 100; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.PutProfile(context.Background(), mkProfile(i)); err == nil {
				profMu.Lock()
				ackedProfiles = append(ackedProfiles, i)
				profMu.Unlock()
			}
			profMu.Lock()
			probe := ackedProfiles[(i*7)%len(ackedProfiles)]
			profMu.Unlock()
			p, err := st.LoadProfile(context.Background(), fmt.Sprintf("chaos-%04d", probe))
			if err == nil {
				if p.InputBytes != int64(probe+1) || p.Map.DataFlow[feat] != float64(probe+1) {
					viol.add("profile chaos-%04d: loaded InputBytes=%d %s=%g, want %d",
						probe, p.InputBytes, feat, p.Map.DataFlow[feat], probe+1)
				}
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	// Let the load overlap the healthy leader briefly, then kill it.
	time.Sleep(5 * time.Millisecond)
	killAt := clock.now()
	if !c.KillMaster("m-0") {
		t.Fatal("KillMaster(m-0) found nothing to kill")
	}
	var newLeader *dstore.Master
	for i := 0; i < 40 && newLeader == nil; i++ {
		clock.advance(500 * time.Millisecond)
		tickMasters(c, clock.now())
		assertNoEpochCollision(t, c)
		if ls := liveLeaders(c); len(ls) == 1 {
			newLeader = ls[0]
		}
	}
	if newLeader == nil {
		t.Fatal("no standby promoted within 20s of injected time")
	}
	takeover := clock.now().Sub(killAt)
	if takeover > 3*lease {
		t.Fatalf("takeover took %v of injected time, bound %v", takeover, 3*lease)
	}
	if newLeader.MasterEpoch() <= 0 {
		t.Fatalf("promoted leader minted epoch %d, want > 0", newLeader.MasterEpoch())
	}

	// The successor spreads the piled-up primaries again from its
	// journal-recovered catalog, one MoveRegion at a time. The move
	// choreography owes its undo on failure, so the moves run in a
	// disarmed window (an operator fixing a degraded cluster over a clean
	// link); the workload keeps hammering throughout. A flip ships zero
	// bytes, so the spread is the assertion.
	eng.Disarm()
	var alive []string
	for _, s := range newLeader.Status() {
		if s.Alive {
			alive = append(alive, s.Peer.ID)
		}
	}
	moves := 0
	for _, table := range []string{"t", core.TableName} {
		for _, g := range newLeader.Meta().Tables[table] {
			to := alive[moves%len(alive)]
			moves++
			if to == g.Primary {
				continue
			}
			if _, err := newLeader.MoveRegion(table, g.ID, to); err != nil {
				t.Fatalf("MoveRegion(%s/%d, %s) on promoted leader: %v", table, g.ID, to, err)
			}
		}
	}
	eng.Arm()
	counts := map[string]int{}
	for _, table := range []string{"t", core.TableName} {
		for _, g := range newLeader.Meta().Tables[table] {
			counts[g.Primary]++
		}
	}
	if len(counts) < 2 {
		t.Fatalf("primaries still piled up after the resumed moves: %v", counts)
	}

	// Keep the cluster ticking under load so the surviving standby
	// mirrors the spread catalog before the next disaster.
	for i := 0; i < 4; i++ {
		clock.advance(500 * time.Millisecond)
		tickMasters(c, clock.now())
		assertNoEpochCollision(t, c)
	}

	// Disaster 2: partition the new leader from its peer. The last
	// standby must promote at a disjoint epoch; the partitioned leader
	// keeps control-plane access to the region servers and is deposed by
	// its first fenced RPC they reject as stale.
	partedID := newLeader.MasterID()
	eng.Partition(partedID)
	var second *dstore.Master
	for i := 0; i < 40 && second == nil; i++ {
		clock.advance(500 * time.Millisecond)
		tickMasters(c, clock.now())
		assertNoEpochCollision(t, c)
		for _, m := range liveLeaders(c) {
			if m.MasterID() != partedID {
				second = m
			}
		}
	}
	if second == nil {
		t.Fatal("no candidate promoted while the leader was partitioned")
	}
	if second.MasterEpoch() == newLeader.MasterEpoch() {
		t.Fatalf("epoch collision across the partition: both at %d", second.MasterEpoch())
	}
	// Let the new candidate's promotion sweep drain to the primaries
	// (each tick retries pending fenced RPCs that chaos dropped).
	for i := 0; i < 4; i++ {
		tickMasters(c, clock.now())
		assertNoEpochCollision(t, c)
	}
	// Drive the stale leader at the data plane until a region server's
	// fence rejection deposes it (injected drops may eat early tries;
	// a stale master's RPCs are rejected outright, so they cannot
	// disturb region state).
	for i := 0; i < 50 && newLeader.IsLeader(); i++ {
		g := newLeader.Meta().Tables["t"][0]
		if len(g.Followers) > 0 {
			newLeader.MoveRegion("t", g.ID, g.Followers[0]) //nolint:errcheck — the rejection itself is the depose
		}
		tickMasters(c, clock.now())
	}
	if newLeader.IsLeader() {
		t.Fatal("partitioned stale leader survived 50 fenced control RPCs undeposed")
	}
	eng.Heal(partedID)
	for i := 0; i < 4; i++ {
		clock.advance(500 * time.Millisecond)
		tickMasters(c, clock.now())
		assertNoEpochCollision(t, c)
	}
	if ls := liveLeaders(c); len(ls) != 1 || ls[0].MasterID() != second.MasterID() {
		t.Fatalf("leaders after heal = %v, want [%s]", ls, second.MasterID())
	}

	// Faults off, workload down; audit every acked write with zero
	// tolerance through the twice-failed-over control plane.
	close(stop)
	wg.Wait()
	eng.Disarm()
	if w := viol.snapshot(); len(w) > 0 {
		t.Fatalf("consistency violations under master chaos:\n%v", w)
	}
	ackedMu.Lock()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	ackedMu.Unlock()
	for i := 0; i < 30; i++ {
		keys = append(keys, key(i))
	}
	for _, k := range keys {
		row, found, err := cl.Get(context.Background(), "t", k)
		if err != nil {
			t.Fatalf("after heal, read of %s failed: %v", k, err)
		}
		if !found {
			t.Fatalf("acked write %s lost across the failovers", k)
		}
		if got := string(row.Columns["c"]); got != val(k) {
			t.Fatalf("acked write %s healed to wrong bytes %q", k, got)
		}
	}
	feat := profile.MapDataFlowFeatures[0]
	ids := append([]int{0, 1, 2, 3, 4}, ackedProfiles...)
	for _, i := range ids {
		p, err := st.LoadProfile(context.Background(), fmt.Sprintf("chaos-%04d", i))
		if err != nil {
			t.Fatalf("after heal, acked profile chaos-%04d unloadable: %v", i, err)
		}
		if p.InputBytes != int64(i+1) || p.Map.DataFlow[feat] != float64(i+1) {
			t.Fatalf("acked profile chaos-%04d healed wrong: InputBytes=%d %s=%g", i, p.InputBytes, feat, p.Map.DataFlow[feat])
		}
	}

	snap := c.Snapshot()
	if got := snap.Counters["dstore_master_elections_total"]; got < 2 {
		t.Fatalf("elections_total = %d, want >= 2 (kill + partition)", got)
	}
	if got := snap.Counters["dstore_master_stepdowns_total"]; got < 1 {
		t.Fatalf("stepdowns_total = %d, want >= 1 (stale depose)", got)
	}
	if got := snap.Counters["dstore_master_journal_tails_total"]; got < 1 {
		t.Fatalf("journal_tails_total = %d, want >= 1 (standbys mirrored)", got)
	}
	if got := snap.Gauges["dstore_master_leader"]; got != 1 {
		t.Fatalf("fleet leader gauge = %g, want exactly 1", got)
	}
}
