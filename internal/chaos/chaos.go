// Package chaos is the deterministic fault-injection harness for the
// profile store: it corrupts bytes at the file layer (bit flips, torn
// writes, fsync errors) and disturbs the transport (dropped requests,
// injected latency, partitions) so the integrity and fault-tolerance
// machinery can be exercised end to end, repeatably.
//
// Determinism is the design center. Every fault decision is a pure
// function of (seed, site, per-site operation index) — a splitmix64
// hash, not a shared RNG — so concurrent goroutines cannot perturb
// each other's draws: the Nth write to the WAL faults (or not)
// identically on every run with the same seed, regardless of
// interleaving. The injected faults are logged; Schedule() returns
// them in a canonical order so two runs can be compared verbatim.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrIO marks an injected file-layer fault (torn write, fsync error).
var ErrIO = errors.New("chaos: injected I/O fault")

// Options set the fault probabilities. All default to zero — an Engine
// with zero options injects nothing and is a transparent pass-through.
type Options struct {
	// Seed drives every fault decision; the same seed reproduces the
	// same fault schedule.
	Seed int64

	// File-layer faults (FaultFS).
	ReadBitFlipProb float64 // one bit of a ReadFile result flips
	TornWriteProb   float64 // an append persists only a prefix, then errors
	FsyncErrProb    float64 // AppendFile.Sync fails

	// Transport faults (WrapConn).
	DropProb    float64       // an RPC fails with dstore.ErrInjected
	LatencyProb float64       // an RPC sleeps Latency before proceeding
	Latency     time.Duration // the injected delay (default 2ms)
}

// Engine owns the fault schedule: one instance wraps the file system
// and/or the transport of a cluster under test.
type Engine struct {
	opts Options

	mu          sync.Mutex
	armed       bool
	counters    map[string]int64
	partitioned map[string]bool
	log         []string
}

// New returns an engine injecting faults per opts. Engines start
// armed; Disarm/Arm bound the chaos window.
func New(opts Options) *Engine {
	return &Engine{
		opts:        opts,
		armed:       true,
		counters:    make(map[string]int64),
		partitioned: make(map[string]bool),
	}
}

// Disarm closes the fault window: wrapped layers pass through
// untouched and draw counters freeze. Disarm before cluster setup and
// Arm at a fixed workload point, and the schedule stays a pure
// function of the seed and the operations inside the window.
func (e *Engine) Disarm() {
	e.mu.Lock()
	e.armed = false
	e.mu.Unlock()
}

// Arm (re)opens the fault window.
func (e *Engine) Arm() {
	e.mu.Lock()
	e.armed = true
	e.mu.Unlock()
}

// splitmix64 is the avalanche mixer behind every fault decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a site name into the mix (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw advances the site's operation counter and returns the op index
// plus the decision hash for it — a pure function of (seed, site, n).
// While disarmed it reports armed=false and leaves the counter
// untouched, so setup traffic cannot shift the schedule.
func (e *Engine) draw(site string) (n int64, h uint64, armed bool) {
	e.mu.Lock()
	if !e.armed {
		e.mu.Unlock()
		return 0, 0, false
	}
	e.counters[site]++
	n = e.counters[site]
	e.mu.Unlock()
	h = splitmix64(uint64(e.opts.Seed) ^ splitmix64(hashString(site)^uint64(n)))
	return n, h, true
}

// hit reports whether the decision hash lands under prob.
func hit(h uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	return float64(h>>11)/(1<<53) < prob
}

// record appends one injected fault to the schedule log.
func (e *Engine) record(site string, n int64, kind string) {
	e.mu.Lock()
	e.log = append(e.log, fmt.Sprintf("%s#%d:%s", site, n, kind))
	e.mu.Unlock()
}

// Schedule returns every fault injected so far, in canonical (sorted)
// order — the artifact two same-seed runs compare for identity.
func (e *Engine) Schedule() []string {
	e.mu.Lock()
	out := append([]string(nil), e.log...)
	e.mu.Unlock()
	sort.Strings(out)
	return out
}

func (e *Engine) isPartitioned(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.partitioned[id]
}

// latency returns the injected delay.
func (e *Engine) latency() time.Duration {
	if e.opts.Latency > 0 {
		return e.opts.Latency
	}
	return 2 * time.Millisecond
}
