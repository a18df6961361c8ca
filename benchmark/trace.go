package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// now is the benchmark's one wall-clock read: everything it reports is
// elapsed real time.
func now() time.Time {
	return time.Now() //pstorm:allow clockcheck the benchmark measures real elapsed wall time
}

func sinceMs(start time.Time) float64 {
	return float64(now().Sub(start)) / float64(time.Millisecond)
}

// Layer names are the repository's module names, plus "client" for the
// load generator's own side of an HTTP call.
const (
	layerClient  = "client"
	layerGateway = "gateway"
	layerCore    = "core"
	layerEngine  = "engine"
	layerMatcher = "matcher"
	layerCBO     = "cbo"
	layerDClient = "dstore.client"
	layerWire    = "dstore.wire"
	layerRS      = "dstore.rs"
	layerRepl    = "dstore.replication"
	layerHStore  = "hstore"
)

// span is one call across a layer boundary, recorded from the
// benchmark's side of that boundary.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a request's root, or an orphan nobody adopted
	Req    int32  `json:"req"`    // spans of one request share it; 0: unattributed
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`

	// A call whose context does not reach the callee (the /d/* wire, and
	// replication's ctx-less Apply) leaves the callee's span without a
	// parent. Such an orphan names in adopt the key of the spans that can
	// be its parent; adoptOrphans links it to the one that encloses it.
	key   string
	adopt string
}

// tracer keeps every span in memory until the workload ends. A nil
// *tracer records nothing, so the untraced pass runs without it.
type tracer struct {
	t0 time.Time

	// on gates recording: set-up runs through the same decorators as
	// the measured window, and its spans are not wanted.
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	nextReq int32
}

func newTracer() *tracer { return &tracer{t0: now()} }

func (t *tracer) off() bool { return t == nil || !t.on.Load() }

type traceCtxKey struct{}

// traceCtx is what a context carries: the enclosing span and request.
type traceCtx struct {
	span, req int32
}

// spanEnd closes a span; it is the handle begin returns.
type spanEnd struct {
	t   *tracer
	idx int
}

func (s spanEnd) end() {
	if s.t == nil {
		return
	}
	at := int64(now().Sub(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.idx].End = at
	s.t.mu.Unlock()
}

// id is the span's identifier, for carrying across a boundary by hand
// (the gateway request header).
func (s spanEnd) id() int32 {
	if s.t == nil {
		return 0
	}
	return int32(s.idx + 1)
}

func (t *tracer) add(sp span) spanEnd {
	sp.Start = int64(now().Sub(t.t0))
	t.mu.Lock()
	sp.ID = int32(len(t.spans) + 1)
	t.spans = append(t.spans, sp)
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return spanEnd{t: t, idx: idx}
}

// root opens a new request: its first span.
func (t *tracer) root(ctx context.Context, layer, name string) (context.Context, spanEnd) {
	if t.off() {
		return ctx, spanEnd{}
	}
	t.mu.Lock()
	t.nextReq++
	req := t.nextReq
	t.mu.Unlock()
	h := t.add(span{Req: req, Layer: layer, Name: name})
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{span: h.id(), req: req}), h
}

// begin opens a child of whatever span ctx carries; with none it is an
// orphan (key and adopt say how it may be linked later).
func (t *tracer) begin(ctx context.Context, layer, name, key, adopt string) (context.Context, spanEnd) {
	if t.off() {
		return ctx, spanEnd{}
	}
	tc, _ := ctx.Value(traceCtxKey{}).(traceCtx)
	h := t.add(span{Parent: tc.span, Req: tc.req, Layer: layer, Name: name, key: key, adopt: adopt})
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{span: h.id(), req: tc.req}), h
}

// childOf opens a span under an explicit parent id (0: orphan), for
// boundaries where the parent arrives some other way than a context.
func (t *tracer) childOf(ctx context.Context, parent int32, layer, name string) (context.Context, spanEnd) {
	if t.off() {
		return ctx, spanEnd{}
	}
	var req int32
	if parent > 0 {
		t.mu.Lock()
		if int(parent) <= len(t.spans) {
			req = t.spans[parent-1].Req
		}
		t.mu.Unlock()
	}
	h := t.add(span{Parent: parent, Req: req, Layer: layer, Name: name})
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{span: h.id(), req: req}), h
}

// finish stops recording and returns the spans with orphans adopted;
// the traced calls must have returned.
func (t *tracer) finish() []span {
	t.on.Store(false)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	adoptOrphans(spans)
	return spans
}

// adoptOrphans links each parentless span that names an adopt key to
// the latest-started span carrying that key whose interval encloses it,
// and hands the request id down. Orphans are visited in start order, so
// a chain (follower handler -> replication call -> leader handler ->
// client call) resolves top down.
func adoptOrphans(spans []span) {
	byKey := map[string][]int{}
	var orphans []int
	for i, s := range spans {
		if s.key != "" {
			byKey[s.key] = append(byKey[s.key], i)
		}
		if s.Parent == 0 && s.adopt != "" {
			orphans = append(orphans, i)
		}
	}
	for _, idxs := range byKey {
		sort.Slice(idxs, func(a, b int) bool { return spans[idxs[a]].Start < spans[idxs[b]].Start })
	}
	sort.Slice(orphans, func(a, b int) bool { return spans[orphans[a]].Start < spans[orphans[b]].Start })
	for _, oi := range orphans {
		o := &spans[oi]
		cands := byKey[o.adopt]
		// First candidate starting after the orphan; walk back from there.
		hi := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > o.Start })
		for k := hi - 1; k >= 0 && k >= hi-8; k-- {
			c := spans[cands[k]]
			if c.End >= o.End && cands[k] != oi {
				o.Parent, o.Req = c.ID, c.Req
				break
			}
		}
	}
	// Children recorded through a context under an adopted orphan still
	// carry request 0: inherit it from the parent (parents precede their
	// children in the slice, being started first).
	for i := range spans {
		if s := &spans[i]; s.Req == 0 && s.Parent > 0 {
			s.Req = spans[s.Parent-1].Req
		}
	}
}

// layerTime is wall-clock attribution of a set of requests: each
// instant of a request's root span is charged to the deepest span
// active at that instant — a layer's self time is its span minus what
// its children cover — and split evenly when several run in parallel.
// The per-layer sums add up to the requests' end-to-end time by
// construction; unadoptedShare is the check that can fail.
type layerTime struct {
	requests int
	rootNs   float64            // summed root-span durations
	selfNs   map[string]float64 // by layer
	nameNs   map[string]float64 // by layer + "/" + span name
	spans    map[string]int     // by layer
}

// attribute computes layerTime over the requests whose root span passes
// keep (nil keeps all).
func attribute(spans []span, keep func(root span) bool) layerTime {
	byReq := map[int32][]int{}
	for i, s := range spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	out := layerTime{selfNs: map[string]float64{}, nameNs: map[string]float64{}, spans: map[string]int{}}
	for _, idxs := range byReq {
		root := -1
		for _, i := range idxs {
			if spans[i].Parent == 0 {
				root = i
				break
			}
		}
		if root < 0 || (keep != nil && !keep(spans[root])) {
			continue
		}
		out.requests++
		out.rootNs += float64(spans[root].End - spans[root].Start)
		attributeRequest(spans, idxs, root, &out)
	}
	return out
}

func attributeRequest(spans []span, idxs []int, root int, out *layerTime) {
	lo, hi := spans[root].Start, spans[root].End
	cuts := make([]int64, 0, 2*len(idxs))
	for _, i := range idxs {
		out.spans[spans[i].Layer]++
		for _, at := range []int64{spans[i].Start, spans[i].End} {
			if at > lo && at < hi {
				cuts = append(cuts, at)
			}
		}
	}
	cuts = append(cuts, lo, hi)
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	hasActiveChild := make(map[int32]bool, len(idxs))
	var leaves []int
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if a == b {
			continue
		}
		clear(hasActiveChild)
		leaves = leaves[:0]
		for _, i := range idxs {
			if s := spans[i]; s.Start <= a && s.End >= b && s.Parent != 0 {
				hasActiveChild[s.Parent] = true
			}
		}
		for _, i := range idxs {
			if s := spans[i]; s.Start <= a && s.End >= b && !hasActiveChild[s.ID] {
				leaves = append(leaves, i)
			}
		}
		share := float64(b-a) / float64(len(leaves))
		for _, i := range leaves {
			out.selfNs[spans[i].Layer] += share
			out.nameNs[spans[i].Layer+"/"+spans[i].Name] += share
		}
	}
}

// perRequestMs is a layer's self time per attributed request.
func (lt layerTime) perRequestMs(layer string) float64 {
	if lt.requests == 0 {
		return 0
	}
	return lt.selfNs[layer] / float64(lt.requests) / 1e6
}

// namedPerRequestMs is the self time of one kind of span ("layer/name")
// per attributed request.
func (lt layerTime) namedPerRequestMs(layerName string) float64 {
	if lt.requests == 0 {
		return 0
	}
	return lt.nameNs[layerName] / float64(lt.requests) / 1e6
}

// share is a layer's part of the requests' end-to-end time.
func (lt layerTime) share(layers ...string) float64 {
	if lt.rootNs == 0 {
		return 0
	}
	var sum float64
	for _, l := range layers {
		sum += lt.selfNs[l]
	}
	return sum / lt.rootNs
}

// meanRequestMs is the mean end-to-end time of the attributed requests.
func (lt layerTime) meanRequestMs() float64 {
	if lt.requests == 0 {
		return 0
	}
	return lt.rootNs / float64(lt.requests) / 1e6
}

// maxUnadoptedShare is how many of the spans recorded without a parent
// may stay unlinked before a traced run fails. Two clients calling the
// same server and operation at once can leave a handler span with no
// single enclosing call; more than a few means the linking is broken
// and the per-layer shares charge server time to the caller.
const maxUnadoptedShare = 0.02

// unadoptedShare is, of the spans recorded without a parent (the server
// side of the /d/* wire and of replication), the share adoptOrphans
// could not link to a request.
func unadoptedShare(spans []span) float64 {
	born, left := 0, 0
	for _, s := range spans {
		if s.adopt != "" {
			born++
			left += btoi(s.Parent == 0)
		}
	}
	return ratio(float64(left), float64(born))
}

// meanSpanMs is the mean duration of the spans with the given layer and
// name.
func meanSpanMs(spans []span, layer, name string) float64 {
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e6
}

// writeSpans writes the span file of one traced workload.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
