package dstore

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstorm/internal/hstore"
)

// parkedConn parks the next Apply it carries (once armed) until the test
// releases it — a writer frozen mid-fan-out, holding its region's gate.
type parkedConn struct {
	ServerConn
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (c *parkedConn) Apply(table string, cells []hstore.Cell) error {
	if c.armed.CompareAndSwap(true, false) {
		close(c.entered)
		<-c.release
	}
	return c.ServerConn.Apply(table, cells)
}

// gatedPair hosts region 1 of table "t" on a primary p replicating to a
// follower f, with every primary→follower Apply passing through park.
func gatedPair(t *testing.T) (p, f *RegionServer, park *parkedConn) {
	t.Helper()
	reg := NewRegistry()
	park = &parkedConn{entered: make(chan struct{}), release: make(chan struct{})}
	reg.WrapConn = func(id string, conn ServerConn) ServerConn {
		if id != "f" {
			return conn
		}
		park.ServerConn = conn
		return park
	}
	p, f = NewRegionServer("p", reg), NewRegionServer("f", reg)
	for _, rs := range []*RegionServer{p, f} {
		if err := rs.Install(&hstore.RegionSnapshot{Table: "t", RegionID: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetRole("t", 1, true, []Peer{{ID: "f"}}, 0); err != nil {
		t.Fatal(err)
	}
	return p, f, park
}

// parkWriter starts a Put on p and returns once it is frozen inside the
// follower Apply; the channel delivers the Put's result.
func parkWriter(p *RegionServer, park *parkedConn, row string) <-chan error {
	park.armed.Store(true)
	put := make(chan error, 1)
	go func() { put <- p.Put(context.Background(), "t", row, "c", []byte("v")) }()
	<-park.entered
	return put
}

// awaitBlockedOnGate returns once some goroutine is waiting for the
// region's gate exclusively (a pending writer is what makes TryRLock
// fail while readers hold the lock) and fails the test if done fires
// first: the control call went through without waiting for the writer.
func awaitBlockedOnGate(t *testing.T, rs *RegionServer, done <-chan error, what string) {
	t.Helper()
	gate := &rs.copyFor("t", 1).gate
	for gate.TryRLock() {
		gate.RUnlock()
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) while a write it did not stop was still replicating", what, err)
		default:
			runtime.Gosched()
		}
	}
}

// TestSetRoleFenceDrains pins what a fence means: SetRole(primary=false)
// returns only after every write the old role admitted has finished its
// fan-out, so a demoted copy's last acked write is on its followers.
func TestSetRoleFenceDrains(t *testing.T) {
	p, f, park := gatedPair(t)
	put := parkWriter(p, park, "k")

	fenced := make(chan error, 1)
	go func() { fenced <- p.SetRole("t", 1, false, nil, 0) }()
	awaitBlockedOnGate(t, p, fenced, "fence")

	close(park.release)
	if err := <-put; err != nil {
		t.Fatalf("Put admitted before the fence: %v", err)
	}
	if err := <-fenced; err != nil {
		t.Fatalf("SetRole(primary=false): %v", err)
	}
	if _, ok, err := f.FollowerGet(context.Background(), "t", "k"); err != nil || !ok {
		t.Fatalf("acked cell on the follower: ok=%v err=%v", ok, err)
	}
	if err := p.Put(context.Background(), "t", "k2", "c", []byte("v")); !hstore.IsNotServing(err) {
		t.Fatalf("Put after the fence returned %v, want NotServing", err)
	}
}

// TestDropKeepsGateAndDrains covers re-hosting a region id on the same
// server: the per-key record (and so the gate a parked writer holds)
// must survive Drop/Install, and Drop itself waits for the writer. The
// exact preemption point of the prototype's 14/200 loss — a writer
// parked between resolving the record and taking its gate — has no seam
// short of a hook in product code; the -race -count=100 CI run of
// TestConcurrentClientOpsDuringMoves owns that interleaving.
func TestDropKeepsGateAndDrains(t *testing.T) {
	p, f, park := gatedPair(t)
	record := p.copyFor("t", 1)
	put := parkWriter(p, park, "k")

	rehosted := make(chan error, 1)
	go func() {
		err := p.Drop("t", 1, 0)
		if err == nil {
			err = p.Install(&hstore.RegionSnapshot{Table: "t", RegionID: 1}, 0)
		}
		if err == nil {
			err = p.SetRole("t", 1, true, []Peer{{ID: "f"}}, 0)
		}
		rehosted <- err
	}()
	awaitBlockedOnGate(t, p, rehosted, "Drop")

	close(park.release)
	if err := <-put; err != nil {
		t.Fatalf("Put admitted before the Drop: %v", err)
	}
	if _, ok, _ := f.FollowerGet(context.Background(), "t", "k"); !ok {
		t.Fatal("acked cell missing on the follower")
	}
	if err := <-rehosted; err != nil {
		t.Fatalf("Drop/Install/SetRole: %v", err)
	}
	if p.copyFor("t", 1) != record {
		t.Fatal("Drop replaced the region's record: a parked writer would hold a gate nobody else takes")
	}
	if err := p.Put(context.Background(), "t", "k2", "c", []byte("v")); err != nil {
		t.Fatalf("Put on the re-hosted copy: %v", err)
	}
	if _, ok, _ := f.FollowerGet(context.Background(), "t", "k2"); !ok {
		t.Fatal("write on the re-hosted copy did not reach its chain")
	}
}

// TestFencedCopyRefusesClientTraffic pins where a copy's role lives:
// the region server, not its store. A copy that is not primary refuses
// every client call, counted, while replication and hedged reads pass;
// SetRole opens it, and Drop/Install closes it again.
func TestFencedCopyRefusesClientTraffic(t *testing.T) {
	ctx := context.Background()
	rs := NewRegionServer("f", NewRegistry())
	region := &hstore.RegionSnapshot{Table: "t", RegionID: 1}
	if err := rs.Install(region, 0); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"Put", func() error { return rs.Put(ctx, "t", "k", "c", []byte("v")) }},
		{"BatchPut", func() error {
			return rs.BatchPut(ctx, "t", []hstore.Row{{Key: "k", Columns: map[string][]byte{"c": []byte("v")}}})
		}},
		{"DeleteRow", func() error { return rs.DeleteRow(ctx, "t", "k") }},
		{"Get", func() error { _, _, err := rs.Get(ctx, "t", "k"); return err }},
		{"BatchGet", func() error { _, _, err := rs.BatchGet(ctx, "t", []string{"k"}); return err }},
		{"Scan", func() error { _, err := rs.Scan(ctx, "t", 1, "", "", nil, 0); return err }},
	}
	refusesAll := func(when string) {
		t.Helper()
		for _, c := range calls {
			before := rs.cNotServing.Value()
			if err := c.call(); !hstore.IsNotServing(err) {
				t.Errorf("%s: %s returned %v, want NotServing", when, c.name, err)
			}
			if n := rs.cNotServing.Value() - before; n != 1 {
				t.Errorf("%s: %s moved dstore_rs_notserving_total by %d, want 1", when, c.name, n)
			}
		}
	}
	refusesAll("installed")

	// Stamped far past the wall clock: a local write can shadow it only
	// if Apply advanced the clock.
	applied := hstore.Cell{Row: "k", Column: "c", Ts: 1 << 62, Value: []byte("applied")}
	if err := rs.Apply("t", []hstore.Cell{applied}); err != nil {
		t.Fatalf("Apply on a fenced copy: %v", err)
	}
	if r, ok, err := rs.FollowerGet(ctx, "t", "k"); err != nil || !ok || string(r.Columns["c"]) != "applied" {
		t.Fatalf("FollowerGet on a fenced copy: %v ok=%v err=%v", r.Columns, ok, err)
	}
	if rows, err := rs.FollowerScan(ctx, "t", 1, "", "", nil, 0); err != nil || len(rows) != 1 {
		t.Fatalf("FollowerScan on a fenced copy: %d rows, err=%v", len(rows), err)
	}

	if err := rs.SetRole("t", 1, true, nil, 0); err != nil {
		t.Fatal(err)
	}
	if r, ok, err := rs.Get(ctx, "t", "k"); err != nil || !ok || string(r.Columns["c"]) != "applied" {
		t.Fatalf("Get after promotion: %v ok=%v err=%v, want the applied cell", r.Columns, ok, err)
	}
	if err := rs.Put(ctx, "t", "k", "c", []byte("local")); err != nil {
		t.Fatal(err)
	}
	if r, _, err := rs.Get(ctx, "t", "k"); err != nil || string(r.Columns["c"]) != "local" {
		t.Fatalf("local write after the applied cell reads %q (err=%v): shadowed by replicated history", r.Columns["c"], err)
	}
	backfill := &hstore.RegionSnapshot{Table: "t", RegionID: 1, Backfill: true}
	if err := rs.Install(backfill, 0); err == nil {
		t.Error("Backfill install onto a primary copy succeeded")
	}

	if err := rs.Drop("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := rs.Install(region, 0); err != nil {
		t.Fatal(err)
	}
	refusesAll("re-installed after a primary copy was dropped")
}

// roleLog records every SetRole the master sends, as "table/region@server".
type roleLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *roleLog) wrap(id string, conn ServerConn) ServerConn {
	return &roleLogConn{ServerConn: conn, id: id, log: l}
}

func (l *roleLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

type roleLogConn struct {
	ServerConn
	id  string
	log *roleLog
}

func (c *roleLogConn) SetRole(table string, regionID int, primary bool, followers []Peer, masterEpoch int64) error {
	c.log.mu.Lock()
	c.log.calls = append(c.log.calls, fmt.Sprintf("%s/%d@%s", table, regionID, c.id))
	c.log.mu.Unlock()
	return c.ServerConn.SetRole(table, regionID, primary, followers, masterEpoch)
}

// loggedCluster is startCluster with four servers, a role log on every
// conn, and the given tables split at g and p: region i of each table
// has primary rs-(i mod 4) and follower rs-(i+1 mod 4).
func loggedCluster(t *testing.T, tables ...string) (*LocalCluster, *testClock, *roleLog) {
	t.Helper()
	clock, log := newTestClock(), &roleLog{}
	c, err := StartLocalCluster(LocalOptions{Servers: 4, Replication: 2, Splits: []string{"g", "p"}, WrapConn: log.wrap, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	beatAll(t, c)
	for _, table := range tables {
		if err := c.Client().CreateTable(context.Background(), table); err != nil {
			t.Fatal(err)
		}
	}
	return c, clock, log
}

func killAndCheck(t *testing.T, c *LocalCluster, clock *testClock, victim string) {
	t.Helper()
	c.KillServer(victim)
	clock.advance(3 * time.Second)
	beatAll(t, c)
	if died := c.Master.CheckLiveness(clock.now()); !reflect.DeepEqual(died, []string{victim}) {
		t.Fatalf("CheckLiveness declared %v dead, want [%s]", died, victim)
	}
}

// TestFailoverPushesOnlyChangedRegions: losing a follower costs its
// region's primary a role push (the prune, then the repair's recruit)
// and nobody else anything — a push drains the primary's writers, so a
// redundant one is a needless write stall.
func TestFailoverPushesOnlyChangedRegions(t *testing.T) {
	c, clock, log := loggedCluster(t, "t")
	// Regions: (rs-0, rs-1), (rs-1, rs-2), (rs-2, rs-3). Moving the second
	// away in full leaves rs-1 with one follower copy of the first region
	// — the first the failover walk meets — and nothing else.
	regions := c.Master.Meta().Tables["t"]
	if _, err := c.Master.MoveRegion("t", regions[1].ID, "rs-3"); err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Master.Meta().Tables["t"] {
		holds := g.Primary == "rs-1" || (len(g.Followers) > 0 && g.Followers[0] == "rs-1")
		if holds != (g.ID == regions[0].ID) {
			t.Fatalf("unexpected layout before the kill: %+v", g)
		}
	}
	log.take()
	killAndCheck(t, c, clock, "rs-1")
	calls := log.take()
	if len(calls) == 0 {
		t.Fatal("no role push after a follower died")
	}
	want := fmt.Sprintf("t/%d@rs-0", regions[0].ID)
	for _, call := range calls {
		if call != want {
			t.Fatalf("role pushes after rs-1 died = %v, want only %s", calls, want)
		}
	}
}

// TestFailoverRPCOrderDeterministic: with two tables the control RPCs of
// one liveness round go out in the same order every run, so a fault
// schedule keyed per call replays.
func TestFailoverRPCOrderDeterministic(t *testing.T) {
	var first []string
	for run := 0; run < 8; run++ {
		c, clock, log := loggedCluster(t, "t", "b")
		log.take()
		killAndCheck(t, c, clock, "rs-1")
		calls := log.take()
		if run == 0 {
			first = calls
			continue
		}
		if !reflect.DeepEqual(calls, first) {
			t.Fatalf("run %d pushed roles in order %v, run 0 in %v", run, calls, first)
		}
	}
	if len(first) < 4 {
		t.Fatalf("expected pushes in both tables, got %v", first)
	}
}

// TestRecruitedPrimaryOutranksUnseenTombstone: a snapshot omits
// tombstones, so a copy recruited from one never sees a delete its
// fellow follower still holds. Once it is primary, what it stamps must
// still sort above that tombstone — the snapshot carries the exporter's
// clock for exactly this — or an acked re-put is invisible on the
// follower and lost at the next failover.
func TestRecruitedPrimaryOutranksUnseenTombstone(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"g", "p"})
	cl := c.Client()
	ctx := context.Background()
	put := func(row string) {
		t.Helper()
		if err := cl.Put(ctx, "t", row, "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// rs-2 stamps first, so its clock is seeded earliest and trails rs-0's.
	put("q-seed")
	put("a-other")
	put("a-k")
	if err := cl.DeleteRow(ctx, "t", "a-k"); err != nil {
		t.Fatal(err)
	}
	first := c.Master.Meta().Tables["t"][0]
	if first.Primary != "rs-0" || first.Followers[0] != "rs-1" {
		t.Fatalf("unexpected layout: %+v", first)
	}
	if _, err := c.Master.MoveRegion("t", first.ID, "rs-2"); err != nil {
		t.Fatal(err)
	}
	put("a-k")
	if _, ok, err := c.Server("rs-1").FollowerGet(ctx, "t", "a-k"); err != nil || !ok {
		t.Fatalf("re-put after a move is hidden on the follower that saw the delete: ok=%v err=%v", ok, err)
	}
}

// refusingConn fails SetRole(primary=true) while armed: the last step
// of a move, after the source was demoted.
type refusingConn struct {
	ServerConn
	armed *atomic.Bool
}

func (c *refusingConn) SetRole(table string, regionID int, primary bool, followers []Peer, masterEpoch int64) error {
	if primary && c.armed.Load() {
		return fmt.Errorf("%w: refused", errTransport)
	}
	return c.ServerConn.SetRole(table, regionID, primary, followers, masterEpoch)
}

// TestFailedMoveLeavesCatalogAndSourceServing: a move that fails at its
// last step — full or flip — returns the error with META as it was, the
// source serving and replicating to its old chain, and no copy left on
// a recruited target.
func TestFailedMoveLeavesCatalogAndSourceServing(t *testing.T) {
	var refuse atomic.Bool
	c, err := StartLocalCluster(LocalOptions{Servers: 3, Replication: 2, Splits: []string{"m"},
		WrapConn: func(id string, conn ServerConn) ServerConn {
			if id == "rs-0" {
				return conn
			}
			return &refusingConn{ServerConn: conn, armed: &refuse}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	if err := c.Client().CreateTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	before := c.Master.Meta()
	g := before.Tables["t"][0] // primary rs-0, follower rs-1
	refuse.Store(true)
	for _, to := range []string{"rs-2", "rs-1"} { // full, then flip
		if _, err := c.Master.MoveRegion("t", g.ID, to); err == nil {
			t.Fatalf("move to %s succeeded with its last step refused", to)
		}
		if after := c.Master.Meta(); !reflect.DeepEqual(after, before) {
			t.Fatalf("failed move to %s changed META:\n%+v\nwas\n%+v", to, after, before)
		}
		row := "k-" + to
		if err := c.Server("rs-0").Put(ctx, "t", row, "c", []byte("v")); err != nil {
			t.Fatalf("source after failed move to %s: %v", to, err)
		}
		if _, ok, _ := c.Server("rs-1").FollowerGet(ctx, "t", row); !ok {
			t.Fatalf("source stopped replicating to its follower after failed move to %s", to)
		}
	}
	if _, err := c.Server("rs-2").Export("t", g.ID); err == nil {
		t.Fatal("recruited target kept its copy after the move failed")
	}
}

// dropLosingConn loses every Drop while armed, before it reaches the
// server — the accepted way a full move leaves an orphan copy behind.
type dropLosingConn struct {
	ServerConn
	armed *atomic.Bool
}

func (c *dropLosingConn) Drop(table string, regionID int, masterEpoch int64) error {
	if c.armed.Load() {
		return fmt.Errorf("%w: drop lost", errTransport)
	}
	return c.ServerConn.Drop(table, regionID, masterEpoch)
}

// TestOrphanCopyNeverResurrectsDeletes: a full move whose source Drop
// was lost leaves a stale copy on the source. A snapshot omits
// tombstones, so recruiting that server again must not build on the
// leftover — rows deleted in between would come back — it fails with
// the catalog untouched until the orphan is gone, and then starts from
// an empty copy.
func TestOrphanCopyNeverResurrectsDeletes(t *testing.T) {
	var lose atomic.Bool
	c, err := StartLocalCluster(LocalOptions{Servers: 3, Replication: 2,
		WrapConn: func(id string, conn ServerConn) ServerConn {
			return &dropLosingConn{ServerConn: conn, armed: &lose}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	cl := c.Client()
	if err := cl.CreateTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"a-gone", "a-kept"} {
		if err := cl.Put(ctx, "t", row, "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	g := c.Master.Meta().Tables["t"][0]
	home := g.Primary
	var away string
	for _, s := range c.Servers {
		if id := s.ID(); id != home && id != g.Followers[0] {
			away = id
		}
	}
	lose.Store(true)
	if _, err := c.Master.MoveRegion("t", g.ID, away); err != nil {
		t.Fatal(err)
	}
	lose.Store(false)
	if _, err := c.Server(home).Export("t", g.ID); err != nil {
		t.Fatalf("setup: the lost Drop left no orphan on %s: %v", home, err)
	}
	if err := cl.DeleteRow(ctx, "t", "a-gone"); err != nil {
		t.Fatal(err)
	}

	deletedEverywhere := func(when string) {
		t.Helper()
		now := c.Master.Meta().Tables["t"][0]
		if _, ok, err := c.Server(now.Primary).Get(ctx, "t", "a-gone"); err != nil || ok {
			t.Fatalf("%s: deleted row on primary %s: found=%v err=%v", when, now.Primary, ok, err)
		}
		for _, f := range now.Followers {
			if _, ok, err := c.Server(f).FollowerGet(ctx, "t", "a-gone"); err != nil || ok {
				t.Fatalf("%s: deleted row on follower %s: found=%v err=%v", when, f, ok, err)
			}
		}
		if _, ok, err := cl.Get(ctx, "t", "a-kept"); err != nil || !ok {
			t.Fatalf("%s: surviving row: found=%v err=%v", when, ok, err)
		}
	}

	before := c.Master.Meta()
	if _, err := c.Master.MoveRegion("t", g.ID, home); err == nil {
		deletedEverywhere("after a move back onto the orphan")
		t.Fatal("move back onto a server still holding an orphan copy succeeded")
	}
	if after := c.Master.Meta(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused move changed META:\n%+v\nwas\n%+v", after, before)
	}
	deletedEverywhere("after the refused move")

	if err := c.Server(home).Drop("t", g.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.MoveRegion("t", g.ID, home); err != nil {
		t.Fatalf("move back once the orphan is gone: %v", err)
	}
	if p := c.Master.Meta().Tables["t"][0].Primary; p != home {
		t.Fatalf("primary = %s, want %s", p, home)
	}
	deletedEverywhere("after the move back")
}

// TestLostDropIsRetried: the source Drop of a full move is lost, so the
// source keeps an orphan copy. The next liveness round re-sends the
// Drop, and moving the region back onto the source then succeeds
// instead of tripping over the orphan.
func TestLostDropIsRetried(t *testing.T) {
	var lose atomic.Bool
	c, err := StartLocalCluster(LocalOptions{Servers: 3, Replication: 2,
		WrapConn: func(id string, conn ServerConn) ServerConn {
			return &dropLosingConn{ServerConn: conn, armed: &lose}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Client().CreateTable(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	g := c.Master.Meta().Tables["t"][0]
	home, away := g.Primary, ""
	for _, s := range c.Servers {
		if id := s.ID(); id != home && id != g.Followers[0] {
			away = id
		}
	}
	lose.Store(true)
	if _, err := c.Master.MoveRegion("t", g.ID, away); err != nil {
		t.Fatal(err)
	}
	lose.Store(false)
	if _, err := c.Server(home).Export("t", g.ID); err != nil {
		t.Fatalf("setup: the lost Drop left no orphan on %s: %v", home, err)
	}

	c.Master.CheckLiveness(time.Now())
	if _, err := c.Server(home).Export("t", g.ID); err == nil {
		t.Fatalf("the liveness round left the orphan on %s", home)
	}
	if _, err := c.Master.MoveRegion("t", g.ID, home); err != nil {
		t.Fatalf("move back onto %s: %v", home, err)
	}
	if p := c.Master.Meta().Tables["t"][0].Primary; p != home {
		t.Fatalf("primary = %s, want %s", p, home)
	}
}

// TestControlRPCOnUnhostedRegionLeavesNoRecord: per-key records are
// never deleted, so a Drop or SetRole naming a region this server never
// hosted must fail without creating one.
func TestControlRPCOnUnhostedRegionLeavesNoRecord(t *testing.T) {
	p, _, _ := gatedPair(t)
	if err := p.SetRole("t", 99, false, nil, 0); err == nil {
		t.Error("SetRole of an unhosted region succeeded")
	}
	if err := p.Drop("nosuch", 1, 0); err == nil {
		t.Error("Drop of an unhosted region succeeded")
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.copies) != 1 {
		t.Errorf("records = %d, want only the hosted region's", len(p.copies))
	}
}
