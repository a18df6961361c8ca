package dstore

import (
	"errors"
	"sync"
	"time"

	"pstorm/internal/obs"
)

// errBreakerOpen marks an operation rejected locally because the
// target server's circuit breaker is open: recent calls to it failed
// at the transport level, so the client stops hammering it for a
// cooldown instead of burning a full timeout per attempt. It is
// retryable — the retry loop refreshes META (the master may have
// failed the server over already) and backs off, and the breaker
// half-opens after the cooldown to probe for recovery.
var errBreakerOpen = errors.New("dstore: circuit breaker open")

// breakerCooldown is how long an open breaker rejects calls before
// half-opening to probe the server.
const breakerCooldown = 100 * time.Millisecond

// Breaker states, exported to the breaker_state gauge per server.
const (
	breakerClosed   = 0 // normal operation
	breakerOpen     = 1 // rejecting calls until the cooldown elapses
	breakerHalfOpen = 2 // one probe in flight decides open vs closed
)

// breaker is a per-server circuit breaker. Only transport-class
// failures (dead server, network error, injected fault) trip it: an
// application-level answer such as NotServing proves the server is
// alive, so it closes the breaker like a success. The clock is
// injected so chaos tests drive state transitions deterministically.
type breaker struct {
	threshold int
	now       func() time.Time
	gauge     *obs.Gauge

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	probing  bool
}

// allow reports whether a call to the server may proceed. In the open
// state it flips to half-open once the cooldown has elapsed and admits
// exactly one probe; concurrent callers are rejected until the probe
// reports back.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.gauge.Set(breakerHalfOpen)
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports the outcome of an admitted call. failed means a
// transport-class failure; anything the server actually answered —
// including errors — counts as proof of life and closes the breaker.
func (b *breaker) record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if !failed {
		if b.state != breakerClosed {
			b.gauge.Set(breakerClosed)
		}
		b.state = breakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.gauge.Set(breakerOpen)
	}
}

// breakerFailure classifies err for the breaker: true only for
// failures that mean "the server did not answer".
func breakerFailure(err error) bool {
	return errors.Is(err, errStopped) ||
		errors.Is(err, errTransport) ||
		errors.Is(err, ErrInjected)
}
