package pstorm

import (
	"runtime"
	"testing"
	"time"
)

// leakGuard snapshots the goroutine count and fails the test if it has
// not settled back by the end (cleanups run LIFO, so register it before
// anything that starts background loops). Teardown is asynchronous —
// loops notice their stop channels on the next ticker poll — so the
// guard retries against a deadline instead of asserting immediately.
func leakGuard(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d now\n%s", before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestCloseIdempotentAfterKill: a StoreServers system whose region
// servers were already killed (the chaos kill path) must still close
// cleanly, repeatedly, and without leaking the cluster's background
// goroutines.
func TestCloseIdempotentAfterKill(t *testing.T) {
	leakGuard(t)
	sys, err := Open(Options{StoreServers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DatasetByName("randomtext-1g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(WordCount(), ds); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Kill every server out from under the system, as a chaos scenario
	// would, then close twice. Both must return without hanging, and the
	// leak guard checks the heartbeat/master loops are gone.
	c := sys.cluster
	for _, rs := range c.Servers {
		c.KillServer(rs.ID())
	}
	sys.Close()
	sys.Close()
}

// TestCloseIdempotentHealthy: double Close on an untouched system.
func TestCloseIdempotentHealthy(t *testing.T) {
	leakGuard(t)
	sys, err := Open(Options{StoreServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close()
}
