package dstore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/workloads"
)

// TestEndToEndFailover is the acceptance scenario of the distributed
// store: a master plus three region servers host the real PStorM
// profile table; over a hundred profiles go in through the routing
// client; the primary of the meta region is killed; and the matcher
// must still resolve probes through the promoted follower with zero
// lost rows.
func TestEndToEndFailover(t *testing.T) {
	clock := newTestClock()
	c, err := StartLocalCluster(LocalOptions{Servers: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Master.opts.Now = clock.now
	t.Cleanup(c.Close)
	beatAll(t, c)
	cl := c.Client()
	cl.RetryBase = time.Microsecond

	st, err := core.NewStore(context.Background(), cl)
	if err != nil {
		t.Fatalf("NewStore over dstore client: %v", err)
	}
	eng := engine.New(cluster.Default16(), 42)
	sys := core.NewSystem(st, eng)

	// Seed real profiles: one profiled submission (the Fig 1.2 workflow
	// against the distributed store), then clones under fresh job IDs
	// until the store holds well over 100 profiles.
	job := workloads.CoOccurrencePairs(2)
	ds, err := workloads.DatasetByName("randomtext-1g")
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Submit(context.Background(), job, ds, core.TuneOptions{})
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if first.Tuned || !first.ProfileStored {
		t.Fatalf("first submission should run profiled and store: %+v", first)
	}
	base, err := st.LoadProfile(context.Background(), first.StoredProfileID)
	if err != nil {
		t.Fatal(err)
	}
	const clones = 110
	for i := 0; i < clones; i++ {
		q := *base
		q.JobID = fmt.Sprintf("%s-clone-%03d", base.JobID, i)
		if err := st.PutProfile(context.Background(), &q); err != nil {
			t.Fatalf("PutProfile clone %d: %v", i, err)
		}
	}
	want := clones + 1
	if n, err := st.Len(context.Background()); err != nil || n != want {
		t.Fatalf("store holds %d profiles (err=%v), want %d", n, err, want)
	}

	// The matcher must find a profile for a fresh sample before the
	// fault, establishing the baseline.
	sample, _, err := eng.CollectSample(job, ds, core.DefaultConfig(job), 1)
	if err != nil {
		t.Fatal(err)
	}
	sample.InputBytes = ds.NominalBytes
	res, err := sys.Matcher.Match(context.Background(), st, sample)
	if err != nil {
		t.Fatalf("Match before failover: %v", err)
	}
	if !res.Matched() {
		t.Fatal("matcher found nothing before failover")
	}

	// Kill the primary of the region holding the meta rows (the
	// serialized profiles the matcher loads), then drive failover.
	m := c.Master.Meta()
	var victim string
	for _, g := range m.Tables[core.TableName] {
		if g.StartKey <= "meta/x" && (g.EndKey == "" || "meta/x" < g.EndKey) {
			victim = g.Primary
		}
	}
	if victim == "" {
		t.Fatal("no region found for meta rows")
	}
	if !c.KillServer(victim) {
		t.Fatalf("KillServer(%s)", victim)
	}
	clock.advance(3 * time.Second)
	beatAll(t, c)
	if died := c.Master.CheckLiveness(clock.advance(0)); len(died) != 1 || died[0] != victim {
		t.Fatalf("CheckLiveness declared %v dead, want [%s]", died, victim)
	}

	// Zero lost rows: the store still holds every profile...
	if n, err := st.Len(context.Background()); err != nil || n != want {
		t.Fatalf("after failover the store holds %d profiles (err=%v), want %d", n, err, want)
	}
	// ...every clone's serialized profile still loads...
	for i := 0; i < clones; i += 7 {
		id := fmt.Sprintf("%s-clone-%03d", base.JobID, i)
		p, err := st.LoadProfile(context.Background(), id)
		if err != nil {
			t.Fatalf("LoadProfile(%s) after failover: %v", id, err)
		}
		if p.JobID != id {
			t.Fatalf("LoadProfile(%s) returned job %s", id, p.JobID)
		}
	}
	// ...and the matcher still resolves probes through the promoted
	// follower.
	res, err = sys.Matcher.Match(context.Background(), st, sample)
	if err != nil {
		t.Fatalf("Match after failover: %v", err)
	}
	if !res.Matched() {
		t.Fatal("matcher found nothing after failover")
	}
	if _, err := st.LoadProfile(context.Background(), res.MapJobID); err != nil {
		t.Fatalf("loading matched profile %s: %v", res.MapJobID, err)
	}
}

// TestConcurrentClientOpsDuringMoves runs every client write verb
// against regions that are being moved the whole time, and then checks
// the replication invariant itself rather than a row count that samples
// it: every acked row reads back from its primary, and every follower
// copy of every region scans equal to its primary, cell for cell.
func TestConcurrentClientOpsDuringMoves(t *testing.T) {
	c, _ := startCluster(t, 3, []string{"g", "p"})
	cl := c.Client()
	cl.RetryBase = time.Microsecond
	ctx := context.Background()

	const writers, perWriter = 4, 120
	prefixes := []string{"a", "h", "q"} // one per region
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	acked := make([]map[string]string, writers)

	for w := 0; w < writers; w++ {
		acked[w] = make(map[string]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%s-w%d-%04d", prefixes[i%3], w, i)
				var err error
				switch i % 3 {
				case 0:
					err = cl.Put(ctx, "t", key, "c", []byte(key))
					acked[w][key] = key
				case 1:
					// Two regions in one batch.
					other := fmt.Sprintf("%s-w%d-%04d-b", prefixes[(i+1)%3], w, i)
					err = cl.BatchPut(ctx, "t", []hstore.Row{
						{Key: key, Columns: map[string][]byte{"c": []byte(key)}},
						{Key: other, Columns: map[string][]byte{"c": []byte(other), "d": []byte("d")}},
					})
					acked[w][key], acked[w][other] = key, other
				case 2:
					if err = cl.Put(ctx, "t", key, "c", []byte("doomed")); err == nil {
						err = cl.DeleteRow(ctx, "t", key)
					}
					if err == nil {
						err = cl.Put(ctx, "t", key, "c", []byte(key))
					}
					acked[w][key] = key
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d (%s): %w", w, i, key, err)
					return
				}
			}
		}(w)
	}

	// Scanners run alongside; a scan may restart on a stale route but
	// must never error out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := cl.Scan(ctx, "t", "", "", nil, 0); err != nil {
				errs <- fmt.Errorf("scan: %w", err)
				return
			}
		}
	}()

	// The mover shuttles every region between its primary's peers for
	// the duration of the writes.
	stop := make(chan struct{})
	var moverWG sync.WaitGroup
	moverWG.Add(1)
	go func() {
		defer moverWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := c.Master.Meta()
			for _, g := range m.Tables["t"] {
				target := c.Servers[(i+g.ID)%len(c.Servers)].ID()
				if target == g.Primary {
					continue
				}
				if _, err := c.Master.MoveRegion("t", g.ID, target); err != nil {
					errs <- fmt.Errorf("move region %d to %s: %w", g.ID, target, err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	moverWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := 0
	for w := range acked {
		want += len(acked[w])
		for key, val := range acked[w] {
			r, ok, err := cl.Get(ctx, "t", key)
			if err != nil || !ok || string(r.Columns["c"]) != val {
				t.Fatalf("acked row %s reads back ok=%v err=%v value %q (lost write)", key, ok, err, r.Columns["c"])
			}
		}
	}
	rows, err := cl.Scan(ctx, "t", "", "", nil, 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if len(rows) != want {
		t.Fatalf("found %d rows after concurrent moves, want %d", len(rows), want)
	}
	byID := make(map[string]*RegionServer)
	for _, rs := range c.Servers {
		byID[rs.ID()] = rs
	}
	for _, g := range c.Master.Meta().Tables["t"] {
		onPrimary, err := byID[g.Primary].Scan(ctx, "t", g.ID, g.StartKey, g.EndKey, nil, 0)
		if err != nil {
			t.Fatalf("region %d: primary scan on %s: %v", g.ID, g.Primary, err)
		}
		if len(g.Followers) == 0 {
			t.Fatalf("region %d ended with no follower", g.ID)
		}
		for _, f := range g.Followers {
			onFollower, err := byID[f].FollowerScan(ctx, "t", g.ID, g.StartKey, g.EndKey, nil, 0)
			if err != nil {
				t.Fatalf("region %d: follower scan on %s: %v", g.ID, f, err)
			}
			if !reflect.DeepEqual(onPrimary, onFollower) {
				t.Fatalf("region %d: follower %s holds %d rows, primary %s holds %d, or their cells differ (replication incomplete)",
					g.ID, f, len(onFollower), g.Primary, len(onPrimary))
			}
		}
	}

	// Force one guaranteed stale route: warm the cache, move the region
	// under a known key, and write through the now-stale view. The
	// client must recover via retry-after-NotServing, never drop the op.
	if _, err := cl.Meta(); err != nil {
		t.Fatal(err)
	}
	m := c.Master.Meta()
	var g RegionInfo
	for _, cand := range m.Tables["t"] {
		if cand.StartKey <= "q-stale" && (cand.EndKey == "" || "q-stale" < cand.EndKey) {
			g = cand
		}
	}
	var target string
	for _, rs := range c.Servers {
		if rs.ID() != g.Primary {
			target = rs.ID()
			break
		}
	}
	before := cl.Retries()
	if _, err := c.Master.MoveRegion("t", g.ID, target); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(context.Background(), "t", "q-stale", "c", []byte("q-stale")); err != nil {
		t.Fatalf("put through stale route: %v", err)
	}
	if cl.Retries() == before {
		t.Fatal("expected a retry-after-NotServing on the stale route")
	}
}
