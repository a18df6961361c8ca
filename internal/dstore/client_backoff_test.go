package dstore

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffScheduleBounded pins the deterministic envelope of the
// retry schedule: caps double from RetryBase, clamp at 100ms, never go
// non-positive (even at shift overflow), and a full default budget's
// worst-case total sleep stays well under a second.
func TestBackoffScheduleBounded(t *testing.T) {
	c := NewClient(nil, NewRegistry())
	c.RetryBase = time.Millisecond

	var total time.Duration
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		cap := c.backoffCap(attempt)
		want := time.Millisecond << uint(attempt)
		if want > 100*time.Millisecond {
			want = 100 * time.Millisecond
		}
		if cap != want {
			t.Fatalf("backoffCap(%d) = %v, want %v", attempt, cap, want)
		}
		total += cap
	}
	if total >= time.Second {
		t.Fatalf("worst-case total backoff %v for %d attempts, want < 1s", total, c.maxAttempts())
	}

	// Shift overflow on huge attempt numbers must clamp, not wrap.
	for _, attempt := range []int{40, 62, 63} {
		if cap := c.backoffCap(attempt); cap != 100*time.Millisecond {
			t.Fatalf("backoffCap(%d) = %v, want 100ms clamp", attempt, cap)
		}
	}
}

// TestBackoffDrawsJitteredWithinCap asserts every draw is full jitter:
// inside [0, cap], and actually varying rather than a fixed schedule
// (the bug this replaces: every client slept the same deterministic
// steps and retried in lockstep).
func TestBackoffDrawsJitteredWithinCap(t *testing.T) {
	c := NewClient(nil, NewRegistry())
	c.RetryBase = 10 * time.Millisecond

	const attempt = 4 // 10ms << 4 = 160ms, clamped to 100ms
	cap := c.backoffCap(attempt)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		d := c.backoff(attempt)
		if d < 0 || d > cap {
			t.Fatalf("draw %v outside [0, %v]", d, cap)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws produced %d distinct values; schedule is not jittered", len(seen))
	}

	// Two clients in one process must not share a jitter stream.
	c2 := NewClient(nil, NewRegistry())
	c2.RetryBase = c.RetryBase
	same := true
	for i := 0; i < 8; i++ {
		if c.backoff(attempt) != c2.backoff(attempt) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two clients drew identical backoff sequences")
	}
}

// TestExhaustionWrapsErrExhausted kills the only copy of a region and
// asserts the client reports giving up as ErrExhausted — callers can
// tell "the cluster never healed while I retried" from a plain store
// error — while non-retryable errors stay unwrapped.
func TestExhaustionWrapsErrExhausted(t *testing.T) {
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

	// A missing table is a plain error, not an exhausted retry budget.
	if err := cl.Put(context.Background(), "no-such-table", "a", "c", nil); err == nil {
		t.Fatal("Put to missing table succeeded")
	} else if errors.Is(err, ErrExhausted) {
		t.Fatalf("non-retryable error wrapped as ErrExhausted: %v", err)
	}

	m, _ := cl.Meta()
	victim := m.Tables["t"][0].Primary
	c.KillServer(victim)
	// No CheckLiveness: the master never notices, so every retry hits the
	// corpse and the budget runs out.
	_, _, err = cl.Get(context.Background(), "t", "a")
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("Get after exhausting retries = %v, want ErrExhausted", err)
	}
	if err := cl.Put(context.Background(), "t", "a", "c", []byte("w")); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Put after exhausting retries = %v, want ErrExhausted", err)
	}
	if got := cl.Obs().Snapshot().Counters["dstore_client_giveup_total"]; got < 2 {
		t.Fatalf("dstore_client_giveup_total = %d, want >= 2", got)
	}
}

// TestNotServingUnderUnchangedMetaIsNotCharged: a primary fenced while
// META still names it — a move between its flip and its commit — costs
// the client wall-clock time, not attempts. With a two-attempt budget
// the Put keeps retrying until the role comes back, then succeeds.
func TestNotServingUnderUnchangedMetaIsNotCharged(t *testing.T) {
	c, err := StartLocalCluster(LocalOptions{Servers: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.Client()
	cl.RetryBase = time.Millisecond
	cl.MaxAttempts = 2
	ctx := context.Background()
	if err := cl.CreateTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	g := c.Master.Meta().Tables["t"][0]
	primary := c.Server(g.Primary)
	if err := primary.SetRole("t", g.ID, false, nil, 0); err != nil {
		t.Fatal(err)
	}
	put := make(chan error, 1)
	go func() { put <- cl.Put(ctx, "t", "a", "c", []byte("v")) }()
	for cl.Retries() < 3*int64(cl.MaxAttempts) {
		select {
		case err := <-put:
			t.Fatalf("Put returned %v after %d retries while the region was in flight", err, cl.Retries())
		case <-time.After(100 * time.Microsecond):
		}
	}
	if err := primary.SetRole("t", g.ID, true, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := <-put; err != nil {
		t.Fatalf("Put once the role came back: %v", err)
	}
}
