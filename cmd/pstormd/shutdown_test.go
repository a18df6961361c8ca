package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// leakGuard mirrors the repo root's close_test guard: the drain path
// must not strand server goroutines. Teardown is asynchronous, so the
// guard retries against a deadline instead of asserting immediately.
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

// shutdownHarness runs serveGraceful over a loopback listener with a
// handler that blocks until the test releases it.
type shutdownHarness struct {
	addr    string
	url     string
	cancel  context.CancelFunc
	release chan struct{}
	started chan struct{}
	stopped atomic.Bool
	done    chan error
}

func startShutdownHarness(t *testing.T, drain time.Duration) *shutdownHarness {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &shutdownHarness{
		addr:    ln.Addr().String(),
		url:     "http://" + ln.Addr().String(),
		release: make(chan struct{}),
		started: make(chan struct{}, 16),
		done:    make(chan error, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.started <- struct{}{}
		<-h.release
		_, _ = io.WriteString(w, "drained")
	})
	go func() {
		h.done <- serveGraceful(ctx, ln, handler, drain, func() { h.stopped.Store(true) })
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-h.release:
		default:
			close(h.release)
		}
	})
	return h
}

// TestServeGracefulDrainsInflight: on shutdown the listener closes
// immediately, but an in-flight request finishes and is answered —
// and the node's own teardown (onStopped) runs only after the drain.
func TestServeGracefulDrainsInflight(t *testing.T) {
	leakGuard(t)
	h := startShutdownHarness(t, 5*time.Second)

	type reply struct {
		status int
		body   string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(h.url)
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		got <- reply{status: resp.StatusCode, body: string(raw)}
	}()
	<-h.started

	h.cancel() // the SIGTERM path

	// New connections are refused once the drain begins; the held
	// request is still running, so the server must not have finished.
	// A probe only connects and hangs up: one that reached the server
	// before the listener closed must not become a second request the
	// handler holds past the drain deadline.
	deadline := time.After(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			break
		}
		conn.Close()
		select {
		case <-deadline:
			t.Fatal("listener still accepting connections after shutdown began")
		case <-time.After(5 * time.Millisecond):
		}
	}
	select {
	case err := <-h.done:
		t.Fatalf("serveGraceful returned (%v) while a request was still in flight", err)
	default:
	}
	if h.stopped.Load() {
		t.Fatal("onStopped ran before the drain finished")
	}

	close(h.release)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK || r.body != "drained" {
		t.Fatalf("in-flight request got status=%d body=%q, want 200 %q", r.status, r.body, "drained")
	}
	if err := <-h.done; err != nil {
		t.Fatalf("clean drain returned %v, want nil", err)
	}
	if !h.stopped.Load() {
		t.Error("onStopped never ran")
	}
}

// TestServeGracefulDrainDeadline: a request that outlives the drain
// budget cannot hold shutdown hostage — the deadline forces remaining
// connections closed and teardown still runs.
func TestServeGracefulDrainDeadline(t *testing.T) {
	leakGuard(t)
	h := startShutdownHarness(t, 50*time.Millisecond)

	errs := make(chan error, 1)
	go func() {
		resp, err := http.Get(h.url)
		if err == nil {
			resp.Body.Close()
		}
		errs <- err
	}()
	<-h.started

	h.cancel()
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("deadline-bounded drain returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveGraceful did not return after the drain deadline")
	}
	if !h.stopped.Load() {
		t.Error("onStopped never ran after the forced close")
	}
	close(h.release) // unblock the handler goroutine
	<-errs           // the stranded client errors out or got a torn response; either way it returns
}
