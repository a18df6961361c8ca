package pstorm_test

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"pstorm"
)

// leakGuard snapshots the goroutine count and fails the test if it has
// not settled back by the end (cleanups run LIFO, so register it before
// anything that starts background loops). Teardown is asynchronous —
// loops notice their stop channels on the next poll — so the guard
// retries against a deadline instead of asserting immediately.
func leakGuard(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		http.DefaultClient.CloseIdleConnections()
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

// TestCloseIdempotentAfterKill: a MasterURL system whose region servers
// were already killed (the chaos kill path) must still close cleanly,
// repeatedly, and leave no goroutine behind once the cluster is gone.
func TestCloseIdempotentAfterKill(t *testing.T) {
	leakGuard(t)
	_, url, kill := startStoreCluster(t, 2)
	sys, err := pstorm.Open(pstorm.Options{Seed: 42, MasterURL: url})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(pstorm.WordCount(), mustDS(t, "randomtext-1g")); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Kill every server out from under the system, then close twice.
	// Both must return without hanging or failing.
	kill()
	for i := 0; i < 2; i++ {
		if err := sys.Close(); err != nil {
			t.Fatalf("Close #%d after kill: %v", i+1, err)
		}
	}
}

// TestCloseIdempotentHealthy: double Close on an untouched system, in
// both in-process forms and on a MasterURL cluster.
func TestCloseIdempotentHealthy(t *testing.T) {
	leakGuard(t)
	_, url, _ := startStoreCluster(t, 1)
	for _, opt := range []pstorm.Options{{}, {DataDir: t.TempDir()}, {MasterURL: url}} {
		sys, err := pstorm.Open(opt)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opt, err)
		}
		for i := 0; i < 2; i++ {
			if err := sys.Close(); err != nil {
				t.Fatalf("Open(%+v): Close #%d: %v", opt, i+1, err)
			}
		}
	}
}
