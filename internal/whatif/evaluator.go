package whatif

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
)

// quantGrid is the resolution of the config quantization used for cache
// keys: 1e-6 is far below the granularity at which the RNG-driven
// search distinguishes candidates, and every "nice decimal" a default
// or hand-written config uses (0.05, 0.80, ...) is a fixed point of the
// rounding, so quantizing such configs is the identity.
const quantGrid = 1e6

func quantF(v float64) float64 { return math.Round(v*quantGrid) / quantGrid }

// Quantize returns the canonical form of a configuration: every float
// parameter rounded onto the 1e-6 grid. The Evaluator predicts the
// quantized config itself (never a "nearby" one), so a cache hit is
// always the exact What-If answer for the canonical config, and
// Quantize is idempotent — re-quantizing a canonical config returns it
// bit-identically.
func Quantize(c conf.Config) conf.Config {
	q := c
	q.IOSortRecordPercent = quantF(c.IOSortRecordPercent)
	q.IOSortSpillPercent = quantF(c.IOSortSpillPercent)
	q.ReduceSlowstart = quantF(c.ReduceSlowstart)
	q.ShuffleInputBufferPercent = quantF(c.ShuffleInputBufferPercent)
	q.ShuffleMergePercent = quantF(c.ShuffleMergePercent)
	q.ReduceInputBufferPercent = quantF(c.ReduceInputBufferPercent)
	return q
}

// evalKey identifies one What-If evaluation. Profiles are immutable
// once stored, so the JobID stands in for the profile's content; the
// cluster is an immutable value type and is embedded directly.
type evalKey struct {
	profileID  string
	inputBytes int64
	cl         cluster.Cluster
	cfg        conf.Config
}

type evalEntry struct {
	key evalKey
	ms  float64
}

// maxEntries bounds every Evaluator's cache; the bound is enforced with
// LRU eviction.
const maxEntries = 4096

// EvaluatorOptions configure an Evaluator.
type EvaluatorOptions struct {
	// Obs, when non-nil, receives tune_cache_hits_total /
	// tune_cache_misses_total counters. Evaluators sharing a registry
	// add into the same counters; the tune_cache_size gauge is
	// registered once by the registry's owner, from Len.
	Obs *obs.Registry
}

// Evaluator wraps Predict/PredictRuntime with a bounded memoizing cache
// keyed by (profile identity, quantized config, input bytes, cluster).
// It is safe for concurrent use: concurrent tune requests of one tenant
// share one Evaluator, and repeated tunes of the same profile (the
// multi-tenant resubmission pattern) are answered from memory.
//
// Predictions are pure functions of the key, so concurrent misses on
// the same key may compute the value twice but always store the same
// number — the cache never changes a result, only its cost.
type Evaluator struct {
	max int

	mu      sync.Mutex
	entries map[evalKey]*list.Element
	lru     *list.List // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64

	cHits   *obs.Counter
	cMisses *obs.Counter
}

// NewEvaluator returns an empty evaluator.
func NewEvaluator(opt EvaluatorOptions) *Evaluator {
	e := &Evaluator{
		max:     maxEntries,
		entries: make(map[evalKey]*list.Element),
		lru:     list.New(),
		cHits:   opt.Obs.Counter("tune_cache_hits_total"),
		cMisses: opt.Obs.Counter("tune_cache_misses_total"),
	}
	return e
}

// PredictRuntime answers the what-if question through the cache. The
// config is canonicalized with Quantize before lookup and evaluation,
// so the returned runtime is the exact prediction of the quantized
// config. Profiles without a JobID bypass the cache (no safe identity).
func (e *Evaluator) PredictRuntime(p *profile.Profile, inputBytes int64, cl *cluster.Cluster, cfg conf.Config) (float64, error) {
	cfg = Quantize(cfg)
	if e == nil || p == nil || cl == nil || p.JobID == "" {
		return PredictRuntime(p, inputBytes, cl, cfg)
	}
	key := evalKey{profileID: p.JobID, inputBytes: inputBytes, cl: *cl, cfg: cfg}

	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		e.lru.MoveToFront(el)
		ms := el.Value.(*evalEntry).ms
		e.mu.Unlock()
		e.hits.Add(1)
		e.cHits.Inc()
		return ms, nil
	}
	e.mu.Unlock()

	// Compute outside the lock: predictions are pure, so a racing
	// duplicate computation stores the identical value.
	ms, err := PredictRuntime(p, inputBytes, cl, cfg)
	e.misses.Add(1)
	e.cMisses.Inc()
	if err != nil {
		return 0, err // errors are deterministic per key; not worth caching
	}

	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		e.lru.MoveToFront(el)
	} else {
		e.entries[key] = e.lru.PushFront(&evalEntry{key: key, ms: ms})
		for e.lru.Len() > e.max {
			oldest := e.lru.Back()
			e.lru.Remove(oldest)
			delete(e.entries, oldest.Value.(*evalEntry).key)
		}
	}
	e.mu.Unlock()
	return ms, nil
}

// Cached returns the memoized prediction for the question, if present,
// computing nothing on a miss.
func (e *Evaluator) Cached(p *profile.Profile, inputBytes int64, cl *cluster.Cluster, cfg conf.Config) (float64, bool) {
	if e == nil || p == nil || cl == nil || p.JobID == "" {
		return 0, false
	}
	key := evalKey{profileID: p.JobID, inputBytes: inputBytes, cl: *cl, cfg: Quantize(cfg)}
	e.mu.Lock()
	el, ok := e.entries[key]
	if !ok {
		e.mu.Unlock()
		return 0, false
	}
	e.lru.MoveToFront(el)
	ms := el.Value.(*evalEntry).ms
	e.mu.Unlock()
	e.hits.Add(1)
	e.cHits.Inc()
	return ms, true
}

// Hits returns the number of cache hits served.
func (e *Evaluator) Hits() int64 {
	if e == nil {
		return 0
	}
	return e.hits.Load()
}

// Misses returns the number of cache misses (computed predictions).
func (e *Evaluator) Misses() int64 {
	if e == nil {
		return 0
	}
	return e.misses.Load()
}

// Len returns the number of cached entries.
func (e *Evaluator) Len() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lru.Len()
}
