// Package lockfix exercises lockcheck: network calls between Lock and
// Unlock (or after a deferred Unlock) are findings, made in the function
// holding the lock or in a helper it calls.
package lockfix

import (
	"net"
	"net/http"
	"sync"
)

type server struct {
	mu sync.Mutex
	rw sync.RWMutex
	hc *http.Client
}

func (s *server) lockedDo(req *http.Request) {
	s.mu.Lock()
	s.hc.Do(req) // want `Client\.Do called while s\.mu is held`
	s.mu.Unlock()
}

func (s *server) deferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	http.Get("http://example.test") // want `http\.Get called while s\.mu is held`
}

func (s *server) readLocked() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	net.Dial("tcp", "example.test:80") // want `net\.Dial called while s\.rw is held`
}

func (s *server) unlockedIsFine(req *http.Request) {
	s.mu.Lock()
	addr := "example.test:80"
	s.mu.Unlock()
	net.Dial("tcp", addr) // allowed: lock released first
}

func (s *server) goroutineIsItsOwnScope() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		http.Get("http://example.test") // allowed: separate goroutine, lock not held there
	}()
}

func (s *server) nonNetworkUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	net.JoinHostPort("h", "80") // allowed: net helper, not a dial
}

func (s *server) tryLocked(req *http.Request) {
	if s.mu.TryLock() {
		defer s.mu.Unlock()
		s.hc.Do(req) // want `Client\.Do called while s\.mu is held`
	}
}

func (s *server) tryReadLocked() {
	if !s.rw.TryRLock() {
		return
	}
	net.Dial("tcp", "example.test:80") // want `net\.Dial called while s\.rw is held`
	s.rw.RUnlock()
}

func (s *server) fetch(req *http.Request) { s.hc.Do(req) }

func (s *server) helperDown(req *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetch(req) // want `call to .*fetch reaches Client\.Do while s\.mu is held`
}
