package dstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pstorm/internal/hstore"
)

// TestBreakerStateMachine drives the breaker through its whole cycle
// with a manual clock: failures to threshold open it, the cooldown
// admits one half-open probe, and the probe's outcome decides.
func TestBreakerStateMachine(t *testing.T) {
	clock := newTestClock()
	c := NewClient(nil, nil)
	c.BreakerThreshold = 3
	c.Now = clock.now
	b := c.breakerFor("rs-x")

	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("breaker rejected call %d while closed", i)
		}
		b.record(true)
	}
	if b.allow() {
		t.Fatal("breaker still admitting after threshold failures")
	}
	if got := c.BreakerState("rs-x"); got != breakerOpen {
		t.Fatalf("state = %d, want open(%d)", got, breakerOpen)
	}

	// Cooldown elapses: exactly one probe is admitted.
	clock.advance(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	// Probe fails: back to open, cooldown restarts.
	b.record(true)
	if b.allow() {
		t.Fatal("breaker admitted right after failed probe")
	}
	clock.advance(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open again")
	}
	// Probe succeeds: closed, calls flow again.
	b.record(false)
	if got := c.BreakerState("rs-x"); got != breakerClosed {
		t.Fatalf("state after successful probe = %d, want closed(%d)", got, breakerClosed)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

// TestBreakerIgnoresApplicationErrors: a NotServing answer proves the
// server is alive and must close (not trip) the breaker.
func TestBreakerIgnoresApplicationErrors(t *testing.T) {
	if breakerFailure(&hstore.NotServingError{Table: "t", Row: "r"}) {
		t.Error("NotServing classified as a transport failure")
	}
	if breakerFailure(errReplication) {
		t.Error("replication failure classified as a transport failure")
	}
	if !breakerFailure(fmt.Errorf("rs-1: %w", errStopped)) {
		t.Error("stopped server not classified as a transport failure")
	}
	if !breakerFailure(fmt.Errorf("x: %w", ErrInjected)) {
		t.Error("injected fault not classified as a transport failure")
	}
}

// TestClientBreakerTripsOnDeadServer: hammering a dead primary opens
// its breaker; after failover the new primary's breaker is untouched
// and reads succeed.
func TestClientBreakerTripsOnDeadServer(t *testing.T) {
	c, clock := startCluster(t, 3, nil)
	cl := c.Client()
	cl.MaxAttempts = 4
	cl.RetryBase = time.Nanosecond
	cl.BreakerThreshold = 2
	cl.Now = clock.now // cooldown never elapses: the clock only moves when we say so

	if err := cl.Put(context.Background(), "t", "k", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	m, _ := cl.Meta()
	g, err := cl.routeIn(m, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	dead := g.Primary
	if !c.KillServer(dead) {
		t.Fatal("KillServer failed")
	}
	if _, _, err := cl.Get(context.Background(), "t", "k"); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Get against dead primary: err=%v, want ErrExhausted", err)
	}
	if got := cl.BreakerState(dead); got != breakerOpen {
		t.Fatalf("breaker for dead server = %d, want open(%d)", got, breakerOpen)
	}

	// Failover, then reads flow to the promoted follower.
	clock.advance(3 * time.Second)
	beatAll(t, c)
	c.Master.CheckLiveness(clock.now())
	row, ok, err := cl.Get(context.Background(), "t", "k")
	if err != nil || !ok || string(row.Columns["c"]) != "v" {
		t.Fatalf("Get after failover: row=%v ok=%v err=%v", row, ok, err)
	}
}

// TestCtxCancelStopsRetriesWithoutExhausted: cancellation surfaces the
// context's own error — never ErrExhausted — and consumes no attempts.
func TestCtxCancelStopsRetriesWithoutExhausted(t *testing.T) {
	c, _ := startCluster(t, 3, nil)
	cl := c.Client()
	if err := cl.Put(context.Background(), "t", "k", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	retriesBefore := cl.Retries()
	if _, _, err := cl.Get(ctx, "t", "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx on canceled ctx: err=%v, want context.Canceled", err)
	} else if errors.Is(err, ErrExhausted) {
		t.Fatalf("cancellation misreported as exhaustion: %v", err)
	}
	if cl.Retries() != retriesBefore {
		t.Error("canceled call consumed retry attempts")
	}
	if err := cl.Put(ctx, "t", "k", "c", []byte("w")); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutCtx: err=%v, want context.Canceled", err)
	}
	if _, _, err := cl.MultiGet(ctx, "t", []string{"k"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiGetCtx: err=%v, want context.Canceled", err)
	}
	if err := cl.BatchPut(ctx, "t", []hstore.Row{{Key: "k"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchPutCtx: err=%v, want context.Canceled", err)
	}
}

// TestCtxDeadlineStopsRetriesWithoutExhausted is the deadline twin of
// the cancellation test: a caller whose deadline passes while the
// client retries against stopped servers gets its own
// context.DeadlineExceeded back, not ErrExhausted, and the client does
// not count a give-up. The attempt budget far outlasts the deadline, so
// only the deadline can end the call.
func TestCtxDeadlineStopsRetriesWithoutExhausted(t *testing.T) {
	c, _ := startCluster(t, 2, nil)
	cl := c.Client()
	cl.MaxAttempts = 1000
	if err := cl.Put(context.Background(), "t", "k", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, rs := range c.Servers {
		rs.Stop()
	}
	giveUps := cl.Obs().Snapshot().Counters["dstore_client_giveup_total"]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := cl.Get(ctx, "t", "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get past its deadline: err=%v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("deadline misreported as exhaustion: %v", err)
	}
	if got := cl.Obs().Snapshot().Counters["dstore_client_giveup_total"]; got != giveUps {
		t.Errorf("dstore_client_giveup_total moved %d -> %d on a caller deadline", giveUps, got)
	}
}

// TestCtxCancelMidBackoff: a cancellation arriving while the client
// sleeps between retries interrupts the sleep promptly.
func TestCtxCancelMidBackoff(t *testing.T) {
	c, _ := startCluster(t, 2, nil)
	cl := c.Client()
	cl.RetryBase = time.Hour // without interruption the test would hang
	cl.BreakerThreshold = -1
	if err := cl.Put(context.Background(), "t", "k", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, rs := range c.Servers {
		rs.Stop()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Get(ctx, "t", "k")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestQuarantineRebuildHealsCorruptPrimary is the full self-healing
// loop: a bit flip on the primary's sstable latches quarantine, the
// master's health poll promotes the healthy follower and drops the
// corrupt copy, re-replication restores the copy count, and every row
// reads back correct — the corruption never reaches a client.
func TestQuarantineRebuildHealsCorruptPrimary(t *testing.T) {
	c, clock := startCluster(t, 3, nil)
	cl := c.Client()
	for i := 0; i < 10; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush("t"); err != nil {
		t.Fatal(err)
	}
	m, _ := cl.Meta()
	g, err := cl.routeIn(m, "t", "k00")
	if err != nil {
		t.Fatal(err)
	}
	corrupt, follower := g.Primary, g.Followers[0]
	hs := c.Server(corrupt).HStore()
	if !hs.CorruptRegionData("t", g.ID, 1000) {
		t.Fatal("CorruptRegionData found nothing to damage")
	}
	// A read trips the checksum, latches quarantine, and surfaces as
	// NotServing (retryable) — never as wrong bytes.
	if _, _, err := hs.Get("t", "k00"); !hstore.IsCorruption(err) {
		t.Fatalf("direct read of corrupt region: err=%v, want CorruptionError", err)
	}
	if len(hs.Quarantined()) != 1 {
		t.Fatalf("Quarantined() = %v, want one region", hs.Quarantined())
	}

	if rebuilt := c.Master.CheckHealth(); rebuilt != 1 {
		t.Fatalf("CheckHealth rebuilt %d copies, want 1", rebuilt)
	}
	g2, err := cl.routeIn(c.Master.Meta(), "t", "k00")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Primary != follower {
		t.Fatalf("promoted primary = %s, want healthy follower %s", g2.Primary, follower)
	}
	for _, f := range g2.Followers {
		if f == corrupt {
			t.Fatalf("corrupt server still listed as follower: %v", g2.Followers)
		}
	}
	if len(c.Server(corrupt).HStore().Quarantined()) != 0 {
		t.Error("corrupt copy not dropped from its server")
	}
	if n := c.Master.Obs().Snapshot().Counters["quarantine_rebuilds_total"]; n != 1 {
		t.Fatalf("quarantine_rebuilds_total = %d, want 1", n)
	}

	// Every row still reads back correct through the client.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%02d", i)
		row, ok, err := cl.Get(context.Background(), "t", k)
		if err != nil || !ok || string(row.Columns["c"]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after rebuild: row=%v ok=%v err=%v", k, row, ok, err)
		}
	}

	// The liveness pass re-replicates the region onto a fresh follower.
	beatAll(t, c)
	c.Master.CheckLiveness(clock.now())
	g3, err := cl.routeIn(c.Master.Meta(), "t", "k00")
	if err != nil {
		t.Fatal(err)
	}
	if len(g3.Followers) != 1 {
		t.Fatalf("replication not restored: followers=%v", g3.Followers)
	}
}

// TestQuarantineRebuildPrunesCorruptFollower: damage on a follower
// copy is evicted without touching the primary.
func TestQuarantineRebuildPrunesCorruptFollower(t *testing.T) {
	c, clock := startCluster(t, 3, nil)
	cl := c.Client()
	for i := 0; i < 10; i++ {
		if err := cl.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush("t"); err != nil {
		t.Fatal(err)
	}
	g, err := cl.routeIn(c.Master.Meta(), "t", "k00")
	if err != nil {
		t.Fatal(err)
	}
	primary, bad := g.Primary, g.Followers[0]
	hs := c.Server(bad).HStore()
	if !hs.CorruptRegionData("t", g.ID, 4) {
		t.Fatal("CorruptRegionData found nothing to damage")
	}
	// Latch via a direct read of the follower's store: hstore knows
	// nothing of roles, so it reads the data and finds the damage.
	if _, _, err := hs.Get("t", "k00"); !hstore.IsCorruption(err) {
		t.Fatalf("Get on corrupt follower: err=%v, want CorruptionError", err)
	}
	if rebuilt := c.Master.CheckHealth(); rebuilt != 1 {
		t.Fatalf("CheckHealth rebuilt %d, want 1", rebuilt)
	}
	g2, err := cl.routeIn(c.Master.Meta(), "t", "k00")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Primary != primary {
		t.Fatalf("primary changed from %s to %s on follower eviction", primary, g2.Primary)
	}
	for _, f := range g2.Followers {
		if f == bad {
			t.Fatal("corrupt follower still in the follower set")
		}
	}
	// Re-replication restores the copy count.
	beatAll(t, c)
	c.Master.CheckLiveness(clock.now())
	g3, _ := cl.routeIn(c.Master.Meta(), "t", "k00")
	if len(g3.Followers) != 1 {
		t.Fatalf("replication not restored: followers=%v", g3.Followers)
	}
}

// flakyMeta fails the next Meta call with a transport error once armed:
// the single-address MasterURL deployment, whose conn is bare HTTP,
// sees exactly that on a dropped request.
type flakyMeta struct {
	MasterConn
	armed atomic.Bool
}

func (f *flakyMeta) Meta() (Meta, error) {
	if f.armed.CompareAndSwap(true, false) {
		return Meta{}, fmt.Errorf("%w: meta fetch dropped", errTransport)
	}
	return f.MasterConn.Meta()
}

// TestTransientMetaErrorRetriedByEveryOp: one transient transport error
// while refreshing META costs every client operation one retry, never
// the operation itself.
func TestTransientMetaErrorRetriedByEveryOp(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"m"})
	ctx := context.Background()
	if err := c.Client().BatchPut(ctx, "t", []hstore.Row{
		{Key: "a", Columns: map[string][]byte{"c": []byte("va")}},
		{Key: "z", Columns: map[string][]byte{"c": []byte("vz")}},
	}); err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		run  func(cl *Client) error
	}{
		{"Get", func(cl *Client) error {
			r, ok, err := cl.Get(ctx, "t", "a")
			if err == nil && (!ok || string(r.Columns["c"]) != "va") {
				err = fmt.Errorf("read %v (found %v), want va", r.Columns, ok)
			}
			return err
		}},
		{"MultiGet", func(cl *Client) error {
			rows, found, err := cl.MultiGet(ctx, "t", []string{"z", "a"})
			if err == nil && (!found[0] || !found[1] || string(rows[0].Columns["c"]) != "vz") {
				err = fmt.Errorf("read %v (found %v)", rows, found)
			}
			return err
		}},
		{"BatchPut", func(cl *Client) error {
			return cl.BatchPut(ctx, "t", []hstore.Row{
				{Key: "b", Columns: map[string][]byte{"c": []byte("vb")}},
				{Key: "y", Columns: map[string][]byte{"c": []byte("vy")}},
			})
		}},
		{"Scan", func(cl *Client) error {
			rows, err := cl.Scan(ctx, "t", "", "", nil, 0)
			if err == nil && len(rows) < 2 {
				err = fmt.Errorf("scanned %d rows, want at least 2", len(rows))
			}
			return err
		}},
	}
	for _, op := range ops {
		mc := &flakyMeta{MasterConn: c.MasterConn()}
		mc.armed.Store(true)
		cl := NewClient(mc, c.Reg)
		cl.RetryBase = time.Microsecond
		if err := op.run(cl); err != nil {
			t.Errorf("%s after one transient META error: %v", op.name, err)
			continue
		}
		if mc.armed.Load() {
			t.Errorf("%s never fetched META", op.name)
		}
		if n := cl.Retries(); n != 1 {
			t.Errorf("%s retried %d times, want 1", op.name, n)
		}
	}
}
