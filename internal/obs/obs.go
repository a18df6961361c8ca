// Package obs is the dependency-free observability substrate: atomic
// counters, gauges, fixed-bucket histograms, and a bounded in-memory
// structured event log with sequence numbers. Every component of the
// distributed profile store (dstore client, region servers, master),
// the embedded hstore, the execution engine, and the matcher owns a
// Registry; snapshots merge across registries and render as either
// Prometheus text exposition or JSON.
//
// Design constraints, in order:
//
//   - zero dependencies: the package must not pull anything beyond the
//     standard library, so every layer of the repo can use it;
//   - negligible hot-path cost: counters and histograms are plain
//     atomics, registered once at component construction and then
//     touched lock-free per operation;
//   - nil-safety: every method works on a nil *Registry or nil metric
//     handle as a no-op, so instrumentation never needs guarding.
package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket edges in ascending order; an implicit +Inf bucket catches the
// tail. Sum and count make averages recoverable.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in milliseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	//pstorm:allow clockcheck monotonic latency helper measuring real elapsed time; data-path timestamps go through Registry.Now
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot captures the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// LatencyBuckets are the default operation-latency bucket bounds, in
// milliseconds: sub-millisecond in-process calls through multi-second
// network stalls.
var LatencyBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// ExpBuckets returns n bucket bounds starting at start, each factor
// times the previous — for quantities spanning orders of magnitude
// (simulated runtimes, byte sizes).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// Registry holds a component's named metrics and its event log.
// Metric identity is name plus rendered label pairs; registering the
// same identity twice returns the same handle.
type Registry struct {
	// Now is the event-timestamp clock (nil: time.Now). Tests inject
	// their own, mirroring dstore.MasterOptions.Now.
	Now func() time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	events   *EventLog
}

// NewRegistry returns an empty registry with a default-capacity event
// log.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
		events:   NewEventLog(0),
	}
}

// key renders the metric identity: name, or name{k="v",k2="v2"} with
// label pairs sorted by key.
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the named counter. Labels are
// alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at snapshot time
// — for quantities cheaper to derive than to maintain (memstore bytes,
// region counts). One identity (name + labels) has one function, owned
// by whoever owns the registry: registering it a second time panics,
// as http.ServeMux does for a duplicate pattern, because silently
// replacing would report only the last registrant's value.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.gaugeFns[k]; dup {
		panic("obs: GaugeFunc registered twice for " + k)
	}
	r.gaugeFns[k] = fn
}

// Histogram returns (creating if needed) the named histogram. The
// bucket bounds of the first registration win; nil bounds default to
// LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// EventLog returns the registry's event log.
func (r *Registry) EventLog() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Emit appends a structured event to the registry's log.
func (r *Registry) Emit(typ string, fields map[string]string) {
	if r == nil {
		return
	}
	now := time.Now
	if r.Now != nil {
		now = r.Now
	}
	r.events.Append(typ, now(), fields)
}

// Snapshot captures every metric and buffered event.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for k, fn := range r.gaugeFns {
		fns[k] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	out := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)+len(fns)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		out.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		out.Gauges[k] = float64(g.Value())
	}
	for k, fn := range fns {
		out.Gauges[k] = fn()
	}
	for k, h := range hists {
		out.Histograms[k] = h.snapshot()
	}
	out.Events = r.events.Since(0, 0)
	return out
}
