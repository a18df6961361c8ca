package dstore

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pstorm/internal/hstore"
)

// testClock is an injectable, manually advanced clock for the master.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time                    { return c.t }
func (c *testClock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

// startCluster builds a deterministic (no background loops) cluster
// with n servers and replication 2, one table "t" split at the given
// keys, and returns it with its clock.
func startCluster(t *testing.T, n int, splits []string) (*LocalCluster, *testClock) {
	t.Helper()
	clock := newTestClock()
	c, err := StartLocalCluster(LocalOptions{Servers: n, Replication: 2, Splits: splits})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	c.Master.opts.Now = clock.now
	t.Cleanup(c.Close)
	// Re-beat everyone so lastBeat moves from the real clock (used
	// during Join) onto the injected one.
	beatAll(t, c)
	if err := c.Client().CreateTable(context.Background(), "t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return c, clock
}

// beatAll heartbeats every live server at the clock's current time.
func beatAll(t *testing.T, c *LocalCluster) {
	t.Helper()
	for _, rs := range c.Servers {
		if !rs.Stopped() {
			if err := c.Master.Heartbeat(rs.ID()); err != nil {
				t.Fatalf("Heartbeat(%s): %v", rs.ID(), err)
			}
		}
	}
}

func TestRoutingAcrossRegions(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"g", "p"})
	cl := c.Client()
	keys := []string{"alpha", "golf", "papa", "zulu", "g", "p"}
	for i, k := range keys {
		if err := cl.Put(context.Background(), "t", k, "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	for i, k := range keys {
		r, ok, err := cl.Get(context.Background(), "t", k)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", k, ok, err)
		}
		if want := fmt.Sprintf("v%d", i); string(r.Columns["c"]) != want {
			t.Fatalf("Get(%q) = %q, want %q", k, r.Columns["c"], want)
		}
	}
	// The three regions must land on three distinct primaries.
	m, err := cl.Meta()
	if err != nil {
		t.Fatal(err)
	}
	prim := map[string]bool{}
	for _, g := range m.Tables["t"] {
		prim[g.Primary] = true
	}
	if len(prim) != 3 {
		t.Fatalf("expected 3 distinct primaries, got %v", prim)
	}
	// Cross-region scan sees all rows in key order.
	rows, err := cl.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(rows) != len(keys) {
		t.Fatalf("Scan returned %d rows, want %d", len(rows), len(keys))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key >= rows[i].Key {
			t.Fatalf("scan out of order: %q then %q", rows[i-1].Key, rows[i].Key)
		}
	}
}

func TestReplicationKeepsFollowersInSync(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	for i := 0; i < 20; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := cl.Meta()
	for _, g := range m.Tables["t"] {
		snapP, err := c.Server(g.Primary).Export("t", g.ID)
		if err != nil {
			t.Fatalf("export primary %s: %v", g.Primary, err)
		}
		for _, f := range g.Followers {
			snapF, err := c.Server(f).Export("t", g.ID)
			if err != nil {
				t.Fatalf("export follower %s: %v", f, err)
			}
			if len(snapF.Cells) != len(snapP.Cells) {
				t.Fatalf("region %d: follower %s has %d cells, primary %s has %d",
					g.ID, f, len(snapF.Cells), g.Primary, len(snapP.Cells))
			}
			for i := range snapP.Cells {
				p, q := snapP.Cells[i], snapF.Cells[i]
				if p.Row != q.Row || p.Column != q.Column || p.Ts != q.Ts || string(p.Value) != string(q.Value) {
					t.Fatalf("region %d cell %d: primary %+v != follower %+v", g.ID, i, p, q)
				}
			}
		}
	}
}

func TestFailoverPromotesFollowerNoLostWrites(t *testing.T) {
	c, clock := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	cl.RetryBase = time.Microsecond

	const n = 60
	for i := 0; i < n; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := cl.Meta()
	victim := m.Tables["t"][0].Primary
	epoch0 := m.Epoch

	// Crash the primary of the first region; everyone else keeps beating.
	if !c.KillServer(victim) {
		t.Fatalf("KillServer(%s) found nothing to kill", victim)
	}
	clock.advance(3 * time.Second)
	beatAll(t, c)
	died := c.Master.CheckLiveness(clock.advance(0))
	if len(died) != 1 || died[0] != victim {
		t.Fatalf("CheckLiveness declared %v dead, want [%s]", died, victim)
	}

	// Every write must still be readable through the promoted follower.
	for i := 0; i < n; i++ {
		r, ok, err := cl.Get(context.Background(), "t", fmt.Sprintf("k%02d", i))
		if err != nil || !ok {
			t.Fatalf("Get(k%02d) after failover: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("v%d", i); string(r.Columns["c"]) != want {
			t.Fatalf("k%02d = %q, want %q", i, r.Columns["c"], want)
		}
	}
	m2, _ := cl.Meta()
	if m2.Epoch <= epoch0 {
		t.Fatalf("epoch did not advance on failover: %d -> %d", epoch0, m2.Epoch)
	}
	for _, g := range m2.Tables["t"] {
		if g.Primary == victim {
			t.Fatalf("region %d still assigned to dead server %s", g.ID, victim)
		}
		for _, f := range g.Followers {
			if f == victim {
				t.Fatalf("region %d still lists dead follower %s", g.ID, victim)
			}
		}
	}
	if cl.Retries() == 0 {
		t.Fatal("expected the client to have retried through the failover")
	}

	// Re-replication: with 2 live servers and replication 2, every
	// region must have one follower again, holding the full data set.
	for _, g := range m2.Tables["t"] {
		if len(g.Followers) != 1 {
			t.Fatalf("region %d not re-replicated: followers=%v", g.ID, g.Followers)
		}
		snapP, err := c.Server(g.Primary).Export("t", g.ID)
		if err != nil {
			t.Fatal(err)
		}
		snapF, err := c.Server(g.Followers[0]).Export("t", g.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(snapF.Cells) != len(snapP.Cells) {
			t.Fatalf("region %d re-replica has %d cells, primary %d", g.ID, len(snapF.Cells), len(snapP.Cells))
		}
	}

	// New writes keep flowing after failover.
	if err := cl.Put(context.Background(), "t", "post-failover", "c", []byte("x")); err != nil {
		t.Fatalf("Put after failover: %v", err)
	}
}

func TestFailoverWithNoLiveCopyLeavesRegionRetrying(t *testing.T) {
	clock := newTestClock()
	c, err := StartLocalCluster(LocalOptions{Servers: 2, Replication: 1, Splits: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	c.Master.opts.Now = clock.now
	t.Cleanup(c.Close)
	beatAll(t, c)
	cl := c.Client()
	cl.RetryBase = time.Microsecond
	cl.MaxAttempts = 3
	if err := cl.CreateTable(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(context.Background(), "t", "a", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	m, _ := cl.Meta()
	victim := m.Tables["t"][0].Primary
	c.KillServer(victim)
	clock.advance(3 * time.Second)
	beatAll(t, c)
	c.Master.CheckLiveness(clock.advance(0))

	// Replication 1: the region has no copy left. The op must fail after
	// exhausting retries, not hang or panic.
	if _, _, err := cl.Get(context.Background(), "t", "a"); err == nil {
		t.Fatal("expected Get against a lost region to fail")
	} else if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMoveRegionFullAndFlip(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	cl.RetryBase = time.Microsecond
	for i := 0; i < 30; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := cl.Meta()
	g := m.Tables["t"][0]

	// Flip to the existing follower: zero bytes shipped.
	flipTo := g.Followers[0]
	n, err := c.Master.MoveRegion("t", g.ID, flipTo)
	if err != nil {
		t.Fatalf("flip move: %v", err)
	}
	if n != 0 {
		t.Fatalf("promotion flip shipped %d bytes, want 0", n)
	}
	m2 := c.Master.Meta()
	if got := m2.Tables["t"][0].Primary; got != flipTo {
		t.Fatalf("primary after flip = %s, want %s", got, flipTo)
	}

	// Full move to the server holding no copy: bytes > 0.
	var third string
	for _, rs := range c.Servers {
		if rs.ID() != m2.Tables["t"][0].Primary && rs.ID() != m2.Tables["t"][0].Followers[0] {
			third = rs.ID()
		}
	}
	n, err = c.Master.MoveRegion("t", g.ID, third)
	if err != nil {
		t.Fatalf("full move: %v", err)
	}
	if n <= 0 {
		t.Fatalf("full move shipped %d bytes, want > 0", n)
	}
	// All rows must still be readable after both moves.
	for i := 0; i < 30; i++ {
		if _, ok, err := cl.Get(context.Background(), "t", fmt.Sprintf("k%02d", i)); err != nil || !ok {
			t.Fatalf("Get(k%02d) after moves: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestBatchPutGroupsAndSurvivesMove(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	cl.RetryBase = time.Microsecond

	var rows []hstore.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, hstore.Row{
			Key:     fmt.Sprintf("k%02d", i),
			Columns: map[string][]byte{"a": []byte("1"), "b": []byte("2")},
		})
	}
	if err := cl.BatchPut(context.Background(), "t", rows); err != nil {
		t.Fatalf("BatchPut: %v", err)
	}

	// Stale META: move a region, then batch again without refreshing.
	m, _ := cl.Meta()
	g := m.Tables["t"][0]
	if _, err := c.Master.MoveRegion("t", g.ID, g.Followers[0]); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Columns = map[string][]byte{"a": []byte("3"), "b": []byte("4")}
	}
	if err := cl.BatchPut(context.Background(), "t", rows); err != nil {
		t.Fatalf("BatchPut after move: %v", err)
	}
	for i := 0; i < 50; i++ {
		r, ok, err := cl.Get(context.Background(), "t", fmt.Sprintf("k%02d", i))
		if err != nil || !ok {
			t.Fatalf("Get(k%02d): ok=%v err=%v", i, ok, err)
		}
		if string(r.Columns["a"]) != "3" || string(r.Columns["b"]) != "4" {
			t.Fatalf("k%02d = %v, want updated values", i, r.Columns)
		}
	}
	if cl.Retries() == 0 {
		t.Fatal("expected a stale-route retry after the move")
	}
}

func TestScanRestartsOnStaleRoute(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	cl.RetryBase = time.Microsecond
	for i := 0; i < 30; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cl.Meta() //nolint:errcheck — warm the cache so the move makes it stale
	m, _ := cl.Meta()
	g := m.Tables["t"][1] // region ["m", "") holds nothing; move region 0's sibling
	g = m.Tables["t"][0]
	var third string
	holds := map[string]bool{g.Primary: true}
	for _, f := range g.Followers {
		holds[f] = true
	}
	for _, rs := range c.Servers {
		if !holds[rs.ID()] {
			third = rs.ID()
		}
	}
	if _, err := c.Master.MoveRegion("t", g.ID, third); err != nil {
		t.Fatal(err)
	}
	rows, err := cl.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatalf("Scan after move: %v", err)
	}
	if len(rows) != 30 {
		t.Fatalf("Scan returned %d rows, want 30 (no partial results)", len(rows))
	}
	if cl.Retries() == 0 {
		t.Fatal("expected the scan to restart on the stale route")
	}
}

func TestDeleteRowReplicates(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"m"})
	cl := c.Client()
	if err := cl.Put(context.Background(), "t", "doomed", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteRow(context.Background(), "t", "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get(context.Background(), "t", "doomed"); err != nil || ok {
		t.Fatalf("row survived delete: ok=%v err=%v", ok, err)
	}
	// The tombstone must be replicated: promote the follower and the row
	// must stay gone.
	m, _ := cl.Meta()
	var g RegionInfo
	for _, cand := range m.Tables["t"] {
		if cand.StartKey == "" {
			g = cand
		}
	}
	if _, err := c.Master.MoveRegion("t", g.ID, g.Followers[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get(context.Background(), "t", "doomed"); err != nil || ok {
		t.Fatalf("row resurrected on follower: ok=%v err=%v", ok, err)
	}
}

func TestStatsAggregateAndReset(t *testing.T) {
	c, _ := startCluster(t, 2, []string{"m"})
	cl := c.Client()
	for i := 0; i < 10; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Scan(context.Background(), "t", "", "", nil, 0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsReturned < 10 {
		t.Fatalf("RowsReturned = %d, want >= 10", st.RowsReturned)
	}
	if err := cl.ResetStats(); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsReturned != 0 || st.RowsScanned != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}
