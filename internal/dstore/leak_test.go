package dstore

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// checkGoroutineLeak snapshots the goroutine count and registers a
// cleanup that fails the test if the count has not settled back down
// by the end. Call it before any cleanup that stops the cluster, so
// the check runs after Close (cleanups run LIFO). Background loops
// poll stop channels on ticker periods, so the guard retries with a
// deadline instead of asserting immediately.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return // don't pile a leak report onto a real failure
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			after := runtime.NumGoroutine()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after cleanup\n%s", before, after, buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestLocalClusterNoGoroutineLeak starts a full background cluster —
// master liveness loop plus per-server heartbeat loops — does real
// work through it, and verifies that Close tears every goroutine
// back down.
func TestLocalClusterNoGoroutineLeak(t *testing.T) {
	checkGoroutineLeak(t)
	c, err := StartLocalCluster(LocalOptions{
		Servers:          3,
		Replication:      2,
		HeartbeatTimeout: 40 * time.Millisecond,
		Background:       true,
	})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer c.Close()

	cl := c.Client()
	if err := cl.CreateTable(context.Background(), "t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := cl.Put(context.Background(), "t", "k", "c", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok, err := cl.Get(context.Background(), "t", "k"); err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
}

// TestLocalClusterLeakAfterKill covers the crash path: killing a
// server mid-flight must reap its heartbeat goroutine too, not just
// the ones Close reaches.
func TestLocalClusterLeakAfterKill(t *testing.T) {
	checkGoroutineLeak(t)
	c, err := StartLocalCluster(LocalOptions{
		Servers:          3,
		Replication:      2,
		HeartbeatTimeout: 40 * time.Millisecond,
		Background:       true,
	})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer c.Close()

	if !c.KillServer(c.Servers[0].ID()) {
		t.Fatal("KillServer found nothing to kill")
	}
}
