// Package leakfix exercises leakcheck: goroutines in server packages
// must be tied to a WaitGroup, a stop channel, or a context — or be
// bounded one-shots. The package name contains "leakfix" to land in
// the checker's long-lived-package scope.
package leakfix

import (
	"context"
	"sync"
	"time"
)

type server struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// startUntied spins forever with nothing watching it.
func (s *server) startUntied() {
	go func() { // want `goroutine is not tied to a WaitGroup, stop channel, or context`
		for {
			time.Sleep(time.Second)
		}
	}()
}

// startLoop selects on the stop channel: tied.
func (s *server) startLoop() {
	go func() {
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(time.Second):
			}
		}
	}()
}

// startWG signals a WaitGroup: tied.
func (s *server) startWG() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		work()
	}()
}

// startCtx watches a context: tied.
func (s *server) startCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Start spawns a named loop whose own body observes the stop channel —
// the spawned function's declaration is the body that is judged.
func (s *server) Start() {
	go s.loop()
}

func (s *server) loop() {
	for {
		select {
		case <-s.stop:
			return
		}
	}
}

// startElectionLoop mirrors the HA master's control loop: a ticker
// driving election/lease upkeep, reaped by Close via the stop channel.
func (s *server) startElectionLoop() {
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				work()
			}
		}
	}()
}

// startJournalTailer mirrors a standby tailing the leader's META
// journal: the named callee's own loop observes the stop channel and
// signals the WaitGroup.
func (s *server) startJournalTailer() {
	s.wg.Add(1)
	go s.tailJournal()
}

func (s *server) tailJournal() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(time.Second):
			work() // pull the next journal frames
		}
	}
}

// startUntiedTailer is the regression shape: a journal tailer that
// spins with nothing watching it survives Close.
func (s *server) startUntiedTailer() {
	go func() { // want `goroutine is not tied to a WaitGroup, stop channel, or context`
		for {
			time.Sleep(time.Second)
			work()
		}
	}()
}

// startBeats is the heartbeat loop with its stop case deleted: a
// ticker is not a lifecycle, and what a callee observes on its own
// behalf (poll returns when stopped) does not stop this loop.
func (s *server) startBeats() {
	go func() { // want `goroutine is not tied to a WaitGroup, stop channel, or context`
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.poll()
			}
		}
	}()
}

func (s *server) poll() {
	select {
	case <-s.stop:
	default:
		work()
	}
}

// hedged is the bounded one-shot idiom: no loops, and the only send
// targets a buffered channel, so the goroutine cannot outlive its one
// operation by more than the operation itself.
func (s *server) hedged() int {
	ch := make(chan int, 1)
	go func() {
		ch <- work()
	}()
	return <-ch
}

// startUnbuffered sends on an unbuffered channel with no lifecycle: if
// the receiver gives up, the goroutine blocks forever.
func (s *server) startUnbuffered() chan int {
	ch := make(chan int)
	go func() { // want `goroutine is not tied to a WaitGroup, stop channel, or context`
		ch <- work()
	}()
	return ch
}

func work() int { return 42 }
