package dstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedPeers is a test-controlled master-to-master transport fault: a
// blocked master can neither ping nor be pinged nor serve image
// pulls, which is exactly what a network partition looks like to the
// electorate.
type gatedPeers struct {
	mu      sync.Mutex
	blocked map[string]bool
}

func (g *gatedPeers) block(id string)    { g.mu.Lock(); defer g.mu.Unlock(); g.blocked[id] = true }
func (g *gatedPeers) heal(id string)     { g.mu.Lock(); defer g.mu.Unlock(); delete(g.blocked, id) }
func (g *gatedPeers) cut(id string) bool { g.mu.Lock(); defer g.mu.Unlock(); return g.blocked[id] }

func (g *gatedPeers) wrap(id string, conn MasterPeerConn) MasterPeerConn {
	return &gatedPeerConn{g: g, id: id, inner: conn}
}

type gatedPeerConn struct {
	g     *gatedPeers
	id    string
	inner MasterPeerConn
}

func (c *gatedPeerConn) Ping(from string) (PeerStatus, error) {
	if c.g.cut(c.id) || c.g.cut(from) {
		return PeerStatus{}, fmt.Errorf("test: master link cut: %w", errTransport)
	}
	return c.inner.Ping(from)
}

func (c *gatedPeerConn) PullImage(masterEpoch, epoch int64) (MetaImage, error) {
	if c.g.cut(c.id) {
		return MetaImage{}, fmt.Errorf("test: master link cut: %w", errTransport)
	}
	return c.inner.PullImage(masterEpoch, epoch)
}

func (c *gatedPeerConn) PushImage(from string, img MetaImage) error {
	if c.g.cut(c.id) || c.g.cut(from) {
		return fmt.Errorf("test: master link cut: %w", errTransport)
	}
	return c.inner.PushImage(from, img)
}

// startHACluster builds a deterministic 3-master cluster: no
// background loops, every master on the shared injected clock,
// heartbeat timeout 2s and leader lease 4s.
func startHACluster(t *testing.T, servers int, gate *gatedPeers) (*LocalCluster, *testClock) {
	t.Helper()
	clock := newTestClock()
	opts := LocalOptions{
		Servers:          servers,
		Replication:      2,
		Splits:           []string{"m"},
		Masters:          3,
		HeartbeatTimeout: 2 * time.Second,
		LeaseDuration:    4 * time.Second,
		Now:              clock.now,
	}
	if gate != nil {
		opts.WrapPeerConn = gate.wrap
	}
	c, err := StartLocalCluster(opts)
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	t.Cleanup(c.Close)
	beatAll(t, c)
	if err := c.Client().CreateTable(context.Background(), "t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return c, clock
}

// tickAll runs one election tick on every live master at the clock's
// current instant, leaders first so standbys fold a fresh leader view.
func tickAll(c *LocalCluster, now time.Time) {
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

// leaders returns the IDs of every live master currently in the leader
// role.
func leaders(c *LocalCluster) []string {
	var out []string
	for _, m := range c.Masters {
		if !m.Stopped() && m.IsLeader() {
			out = append(out, m.MasterID())
		}
	}
	return out
}

// TestElectionPromotesExactlyOneStandby kills the leader and expects,
// after the lease lapses, exactly one standby to promote — the one the
// seeded rank predicts — with a fenced epoch the region servers adopt.
func TestElectionPromotesExactlyOneStandby(t *testing.T) {
	c, clock := startHACluster(t, 3, nil)
	cl := c.Client()
	for _, row := range []string{"a", "m", "z"} {
		if err := cl.Put(context.Background(), "t", row, "c", []byte(row)); err != nil {
			t.Fatalf("Put(%s): %v", row, err)
		}
	}
	// Establish: everyone meets everyone, standbys mirror the journal.
	tickAll(c, clock.t)
	if got := leaders(c); len(got) != 1 || got[0] != "m-0" {
		t.Fatalf("bootstrap leaders = %v, want [m-0]", got)
	}

	// Predict the winner from the seeded rank: of the two standbys, the
	// one that outranks the other.
	m1, m2 := c.MasterByID("m-1"), c.MasterByID("m-2")
	want := "m-1"
	if m2.outranksMe("m-1") == false && m1.outranksMe("m-2") == false {
		t.Fatal("rank tie broken inconsistently")
	}
	if m1.outranksMe("m-2") { // m-2 beats m-1
		want = "m-2"
	}

	if !c.KillMaster("m-0") {
		t.Fatal("KillMaster(m-0) found nothing to kill")
	}
	// Inside the lease nobody promotes.
	clock.advance(time.Second)
	tickAll(c, clock.t)
	if got := leaders(c); len(got) != 0 {
		t.Fatalf("leader elected inside the lease: %v", got)
	}
	// Past the lease exactly one standby takes over.
	clock.advance(4 * time.Second)
	tickAll(c, clock.t)
	got := leaders(c)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("post-lease leaders = %v, want [%s]", got, want)
	}
	nl := c.MasterByID(want)
	if nl.MasterEpoch() <= 0 {
		t.Fatalf("promoted leader minted epoch %d, want > 0", nl.MasterEpoch())
	}
	// The promotion sweep raised the epoch floor of every region's
	// primary (followers catch up on their next fenced control RPC).
	for _, g := range nl.Meta().Tables["t"] {
		rs := c.Server(g.Primary)
		if rs.SeenMasterEpoch() != nl.MasterEpoch() {
			t.Fatalf("primary %s fences at epoch %d, leader minted %d", rs.ID(), rs.SeenMasterEpoch(), nl.MasterEpoch())
		}
	}
	// Another tick settles the losing standby behind the new leader.
	tickAll(c, clock.t)
	if got := leaders(c); len(got) != 1 {
		t.Fatalf("leaders after settle = %v", got)
	}

	// The data plane survived: reads and writes flow through the
	// failover-aware master conn with no reconfiguration.
	for _, row := range []string{"a", "m", "z"} {
		got, ok, err := cl.Get(context.Background(), "t", row)
		if err != nil || !ok || string(got.Columns["c"]) != row {
			t.Fatalf("Get(%s) after takeover = %v %v %v", row, got, ok, err)
		}
	}
	if err := cl.Put(context.Background(), "t", "post", "c", []byte("post")); err != nil {
		t.Fatalf("Put after takeover: %v", err)
	}
	snap := c.Snapshot()
	if snap.Counters["dstore_master_elections_total"] != 1 {
		t.Fatalf("elections_total = %d, want 1", snap.Counters["dstore_master_elections_total"])
	}
	if snap.Gauges["dstore_master_leader"] != 1 {
		t.Fatalf("leader gauge = %g, want 1 across the fleet", snap.Gauges["dstore_master_leader"])
	}
}

// TestPartitionedLeaderIsFencedAndDeposed partitions the leader away
// from its peers, lets a standby promote, and checks both fencing
// paths: the old leader's next control RPC is rejected stale by the
// region servers (deposing it on the spot), and its epochs can never
// collide with the new leader's.
func TestPartitionedLeaderIsFencedAndDeposed(t *testing.T) {
	gate := &gatedPeers{blocked: make(map[string]bool)}
	c, clock := startHACluster(t, 3, gate)
	tickAll(c, clock.t)

	gate.block("m-0")
	clock.advance(5 * time.Second)
	beatAll(t, c) // region servers still reach the old leader
	tickAll(c, clock.t)
	got := leaders(c)
	if len(got) != 2 {
		// Two *candidates* across a partition is the expected state; the
		// old leader does not even know it has been superseded yet.
		t.Fatalf("leaders under partition = %v, want old + new candidate", got)
	}
	old := c.MasterByID("m-0")
	var promoted *Master
	for _, id := range got {
		if id != "m-0" {
			promoted = c.MasterByID(id)
		}
	}
	if promoted == nil {
		t.Fatalf("no standby promoted under partition: %v", got)
	}
	if promoted.MasterEpoch() == old.MasterEpoch() {
		t.Fatalf("epoch collision: both leaders at %d", old.MasterEpoch())
	}

	// The old leader tries to keep running the cluster: the region
	// servers, already swept to the new epoch, reject it as stale, and
	// the rejection itself deposes it.
	g := old.Meta().Tables["t"][0]
	_, err := old.MoveRegion("t", g.ID, g.Followers[0])
	if !errors.Is(err, ErrStaleMaster) {
		t.Fatalf("stale leader's MoveRegion err = %v, want ErrStaleMaster", err)
	}
	if old.IsLeader() {
		t.Fatal("old leader still leading after a stale rejection")
	}
	if got := leaders(c); len(got) != 1 || got[0] != promoted.MasterID() {
		t.Fatalf("leaders after depose = %v", got)
	}
	snap := c.Snapshot()
	if snap.Counters["dstore_master_stepdowns_total"] != 1 {
		t.Fatalf("stepdowns_total = %d, want 1", snap.Counters["dstore_master_stepdowns_total"])
	}
	var staleRejections int64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "dstore_rs_stale_master_total") {
			staleRejections += v
		}
	}
	if staleRejections == 0 {
		t.Fatal("no region server ever rejected a stale epoch")
	}
}

// TestHealedLeaderStepsDownOnPing is the other depose path: a deposed
// leader that issues no control RPCs still steps down on its first
// healed ping exchange, because a peer reports a leader with a higher
// epoch.
func TestHealedLeaderStepsDownOnPing(t *testing.T) {
	gate := &gatedPeers{blocked: make(map[string]bool)}
	c, clock := startHACluster(t, 3, gate)
	tickAll(c, clock.t)

	gate.block("m-0")
	clock.advance(5 * time.Second)
	tickAll(c, clock.t)
	if got := leaders(c); len(got) != 2 {
		t.Fatalf("leaders under partition = %v", got)
	}
	gate.heal("m-0")
	clock.advance(time.Second)
	tickAll(c, clock.t)
	got := leaders(c)
	if len(got) != 1 || got[0] == "m-0" {
		t.Fatalf("leaders after heal = %v, want the promoted standby only", got)
	}
	if c.Snapshot().Counters["dstore_master_stepdowns_total"] != 1 {
		t.Fatal("healed leader never stepped down")
	}
}

// TestStandbyRedirectsAndMultiMasterFollows pins the NotLeader
// vocabulary: a standby answers control-plane calls with a typed
// redirect naming the leader, and the multi-master conn follows it no
// matter which master it tries first.
func TestStandbyRedirectsAndMultiMasterFollows(t *testing.T) {
	c, clock := startHACluster(t, 3, nil)
	tickAll(c, clock.t)

	standby := c.MasterByID("m-1")
	err := standby.CreateTableSplits("x", nil)
	var nl *NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("standby CreateTable err = %v, want NotLeaderError", err)
	}
	if nl.LeaderID != "m-0" {
		t.Fatalf("redirect names leader %q, want m-0", nl.LeaderID)
	}
	if !IsNotLeader(err) {
		t.Fatal("IsNotLeader does not match the typed redirect")
	}

	// A conn preferring the standbys still lands every call on the
	// leader by following redirects.
	mc := ConnectMasters(c.MasterByID("m-1"), c.MasterByID("m-2"), c.MasterByID("m-0"))
	if err := mc.CreateTable("t2"); err != nil {
		t.Fatalf("CreateTable through standby-first conn: %v", err)
	}
	meta, err := mc.Meta()
	if err != nil {
		t.Fatalf("Meta through standby-first conn: %v", err)
	}
	if len(meta.Tables["t2"]) == 0 {
		t.Fatal("t2 missing from META after redirected create")
	}
	if err := mc.Join(Peer{ID: c.Servers[0].ID()}); err != nil {
		t.Fatalf("rejoin through standby-first conn: %v", err)
	}
}

// TestSameIDRejoinBeforeTimeoutIsCleanReregistration is the regression
// test for the rejoin race: a region server that restarts under the
// same ID *inside* its liveness window must be treated as a new, empty
// incarnation immediately — its old regions fail over synchronously —
// instead of META routing reads at a server that no longer holds the
// data until the stale timeout fires.
func TestSameIDRejoinBeforeTimeoutIsCleanReregistration(t *testing.T) {
	c, clock := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	for _, row := range []string{"a", "m", "z"} {
		if err := cl.Put(context.Background(), "t", row, "c", []byte(row)); err != nil {
			t.Fatalf("Put(%s): %v", row, err)
		}
	}
	victim := c.Master.Meta().Tables["t"][0].Primary

	// Restart the victim as a fresh, empty process under the same ID,
	// well inside the liveness window (no clock advance at all).
	c.Server(victim).Stop()
	NewRegionServer(victim, c.Reg)
	if err := c.Master.Join(Peer{ID: victim}); err != nil {
		t.Fatalf("rejoin %s: %v", victim, err)
	}

	// Every row is readable immediately: the rejoin failed the old
	// incarnation's regions over to live replicas synchronously.
	for _, row := range []string{"a", "m", "z"} {
		got, ok, err := cl.Get(context.Background(), "t", row)
		if err != nil || !ok || string(got.Columns["c"]) != row {
			t.Fatalf("Get(%s) after rejoin = %v %v %v", row, got, ok, err)
		}
	}
	for _, g := range c.Master.Meta().Tables["t"] {
		if g.Primary == victim {
			t.Fatalf("region %d still routed at the revived-empty %s", g.ID, victim)
		}
	}

	// The liveness timeout passing later must not double-process the
	// old incarnation's death: the rejoin already handled it.
	beatAll(t, c)
	clock.advance(10 * time.Second)
	if err := c.Master.Heartbeat(victim); err != nil {
		t.Fatalf("Heartbeat(%s): %v", victim, err)
	}
	for _, rs := range c.Servers {
		if rs.ID() != victim && !rs.Stopped() {
			if err := c.Master.Heartbeat(rs.ID()); err != nil {
				t.Fatalf("Heartbeat(%s): %v", rs.ID(), err)
			}
		}
	}
	if dead := c.Master.CheckLiveness(clock.t); len(dead) != 0 {
		t.Fatalf("CheckLiveness after rejoin declared %v dead", dead)
	}
	snap := c.Master.Obs().Snapshot()
	if snap.Counters["dstore_master_server_deaths_total"] != 0 {
		t.Fatalf("rejoin counted as a death: %d", snap.Counters["dstore_master_server_deaths_total"])
	}
}

// TestPromotedLeaderResumesMoves pins that control-plane work
// interrupted by a leader crash can be re-driven by the successor: the
// new leader moves regions off the piled-up server from the
// journal-recovered catalog.
func TestPromotedLeaderResumesMoves(t *testing.T) {
	c, clock := startHACluster(t, 3, nil)
	// Pile every region onto rs-0 so the cluster is visibly unbalanced.
	for _, g := range c.Master.Meta().Tables["t"] {
		if g.Primary != "rs-0" {
			if _, err := c.Master.MoveRegion("t", g.ID, "rs-0"); err != nil {
				t.Fatalf("MoveRegion(%d): %v", g.ID, err)
			}
		}
	}
	tickAll(c, clock.t) // standbys mirror the lopsided catalog
	c.KillMaster("m-0")
	clock.advance(5 * time.Second)
	tickAll(c, clock.t)
	nl := c.Leader()
	if nl == nil {
		t.Fatal("no leader after takeover")
	}
	// Spread the regions over rs-0..rs-2 again. A flip ships zero bytes,
	// so the layout — not the byte count — is the assertion.
	regions := nl.Meta().Tables["t"]
	for i, g := range regions {
		if to := fmt.Sprintf("rs-%d", i%3); to != g.Primary {
			if _, err := nl.MoveRegion("t", g.ID, to); err != nil {
				t.Fatalf("MoveRegion(%d, %s) on promoted leader: %v", g.ID, to, err)
			}
		}
	}
	counts := map[string]int{}
	for _, g := range nl.Meta().Tables["t"] {
		counts[g.Primary]++
	}
	if len(regions) < 2 || len(counts) < 2 {
		t.Fatalf("primaries still piled up after the moves: %v over %d regions", counts, len(regions))
	}
}
