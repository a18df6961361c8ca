package gateway

import (
	"sync"
	"time"
)

// TenantConfig is one tenant's serving contract.
type TenantConfig struct {
	// RatePerSec is the token-bucket refill rate in requests/second
	// (<= 0: unlimited — no rate admission at all).
	RatePerSec float64
	// Burst is the bucket capacity (default: max(RatePerSec, 1)).
	Burst float64
	// MaxInflight caps the tenant's concurrently admitted requests
	// (<= 0: no per-tenant ceiling).
	MaxInflight int
	// Priority orders tenants for load shedding: while the store is
	// degraded (breakers open, store retries running out of attempts),
	// tenants with Priority <= 0 are shed and higher-priority tenants
	// keep service. Default 0 = best-effort.
	Priority int
}

// withDefaults fills the zero values that have computed defaults.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.RatePerSec > 0 && c.Burst <= 0 {
		c.Burst = c.RatePerSec
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// bucket is a standard token bucket under a mutex: refilled lazily from
// the injected clock on each take, so idle tenants cost nothing.
type bucket struct {
	rate  float64 // tokens per second
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take consumes one token if available. When the bucket is empty it
// reports how long until the next token accrues — the Retry-After the
// shed response carries.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// admitError is an admission rejection: the HTTP status, envelope code,
// and Retry-After hint the shed response should carry.
type admitError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}
