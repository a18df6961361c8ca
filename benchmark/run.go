package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured window
	// maxOps, when > 0, ends the window after that many operations
	// instead of after seconds: counts then repeat exactly (smoke test).
	maxOps int
	trace  bool
	// scale shrinks preloaded data (1: the sizes the README states). Only
	// the smoke test sets it below 1; the program has no flag for it.
	scale  float64
	outDir string // span files go here
	tmpDir string // scratch for data directories, inside the checkout
}

func (c *runConfig) scaled(n int) int { return max(1, int(float64(n)*c.scale)) }

// window bounds one measured loop.
type window struct {
	deadline time.Time
	maxOps   int
}

func (c *runConfig) window(share float64) window {
	return window{
		deadline: now().Add(time.Duration(c.seconds * share * float64(time.Second))),
		maxOps:   c.maxOps,
	}
}

// open reports whether operation i (0-based) may start.
func (w window) open(i int) bool {
	if w.maxOps > 0 {
		return i < w.maxOps
	}
	return now().Before(w.deadline)
}

// measured is what one measured window yields.
type measured struct {
	// e2e holds ops_s, p50_ms, p95_ms and alloc_kb_per_op of the
	// workload's primary operation.
	e2e     map[string]float64
	samples int // primary-operation samples behind the percentiles
	// layer holds the workload's own ungated numbers (both passes) and,
	// on a traced pass, the metrics read from spans and obs snapshots.
	// Where both passes of a traced run report a key, the untraced wins.
	layer     map[string]float64
	attempted int
	failed    int
	failures  []string // first few, for the report
	// agree holds digests of what the operations decided; where the
	// traced and the untraced half of a run both report a key, the values
	// must be equal, or the trace measured a different program.
	agree map[string]string
}

func newMeasured() *measured {
	return &measured{e2e: map[string]float64{}, layer: map[string]float64{}, agree: map[string]string{}}
}

// fail records a failed, refused or wrong-answer operation.
func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// primary fills the four end-to-end numbers of a closed-loop window
// from the primary operation's latencies.
func (m *measured) primary(latMs []float64, elapsed time.Duration, allocBytes uint64) {
	s := sortedCopy(latMs)
	m.samples = len(s)
	m.e2e["p50_ms"] = percentile(s, 0.50)
	m.e2e["p95_ms"] = percentile(s, 0.95)
	if len(s) >= 1000 {
		m.layer["p99_ms"] = percentile(s, 0.99)
	}
	if elapsed > 0 {
		m.e2e["ops_s"] = float64(len(s)) / elapsed.Seconds()
	}
	if len(s) > 0 {
		m.e2e["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(len(s))
	}
}

// env is one set-up instance of a workload, ready to be measured.
type env interface {
	// measure runs the workload's operations for the window and checks
	// every answer. On a traced env it also fills the per-layer metrics.
	measure(w window) *measured
	// close releases everything set-up made and stops what it started.
	close()
}

// workload is one of the four workloads.
type workload struct {
	spec workloadSpec
	// prepare does the seed-dependent work every set-up shares (the
	// profile bank, reference answers); its time is part of setup_s.
	prepare func(c *runConfig) (any, error)
	// setup builds one env; tr is nil for the untraced pass.
	setup func(c *runConfig, prep any, tr *tracer) (env, error)
}

var allWorkloads = []workload{submitLoop, matchScale, storeMixed, serveOpen}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.spec.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is one run as reported: the JSON line, and a row of a
// result file.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`

	spanFile string // where a traced run wrote its spans
}

// A set-up of a tenth of a second reads a quarter apart from one run to
// the next, so short set-ups are made again — up to setupRepeats of them,
// while together they have taken less than setupBudget — and setup_s is
// their median. A set-up of seconds is made once.
const (
	setupRepeats = 5
	setupBudget  = 2 * time.Second
)

// runOnce sets the workload up, measures it, and returns the run's
// metrics: the end-to-end set on an untraced run, the per-layer set on a
// traced one. setup_s is the preparation plus one set-up, as the median
// of a few when they are short.
//
// A traced run sets up twice and measures two windows of half the
// length — first untraced, then traced with the same operations — so
// that trace.overhead_share compares like with like. Whatever the
// untraced window can measure (the workloads' own numbers, the sample
// count) is reported from it on both kinds of run; the traced window
// supplies only what needs spans or snapshot deltas.
func runOnce(w workload, c runConfig) (*runResult, error) {
	if err := os.MkdirAll(c.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c.tmpDir = dir

	res := &runResult{Workload: w.spec.Name, Seed: c.seed, Trace: c.trace, Metrics: map[string]float64{}}

	var (
		prep    any
		plain   env
		setups  []float64
		spentOn time.Duration
	)
	for len(setups) == 0 || (len(setups) < setupRepeats && spentOn < setupBudget) {
		if plain != nil {
			plain.close()
		}
		t0 := now()
		if prep, err = w.prepare(&c); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.spec.Name, err)
		}
		if plain, err = w.setup(&c, prep, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.spec.Name, err)
		}
		took := now().Sub(t0)
		spentOn += took
		setups = append(setups, took.Seconds())
	}
	setupS := median(setups)

	var tr *tracer
	var traced env
	share := 1.0
	if c.trace {
		share = 0.5
		tr = newTracer()
		if traced, err = w.setup(&c, prep, tr); err != nil {
			plain.close()
			return nil, fmt.Errorf("%s: traced set-up: %w", w.spec.Name, err)
		}
	}

	runtime.GC()
	m := plain.measure(c.window(share))
	plain.close()
	res.absorb(m)
	res.Samples = m.samples
	for k, v := range m.layer {
		res.Metrics[k] = v
	}

	if !c.trace {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = m.e2e[d.Name]
		}
		res.Metrics["setup_s"] = setupS
		res.finish()
		return res, nil
	}

	runtime.GC()
	before := sampleProc()
	tm := traced.measure(c.window(share))
	after := sampleProc()
	traced.close()
	res.absorb(tm)
	for k, v := range m.agree {
		if tv, ok := tm.agree[k]; ok && tv != v {
			res.Failures = append(res.Failures, fmt.Sprintf("%s differ between the untraced (%s) and the traced (%s) pass", k, v, tv))
		}
	}

	layer := tm.layer
	for k, v := range m.layer {
		layer[k] = v
	}
	layer["samples"] = float64(m.samples)
	processMetrics(before, after, layer)
	if m.e2e["ops_s"] > 0 {
		layer["trace.overhead_share"] = 1 - tm.e2e["ops_s"]/m.e2e["ops_s"]
	}
	spans := tr.finish()
	layer["trace.spans"] = float64(len(spans))
	layer["trace.unadopted_share"] = unadoptedShare(spans)
	if c.outDir != "" {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return nil, err
		}
		res.spanFile = filepath.Join(c.outDir, "trace-"+w.spec.Name+".json")
		if err := writeSpans(res.spanFile, spans); err != nil {
			return nil, err
		}
	}
	if err := runProbes(&c, layer); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = layer[d.Name]
	}
	// The attribution hands every instant of a request to some layer, so
	// its shares add up to 1 whatever was recorded. What can go wrong is
	// the linking: a server-side span that no client-side call encloses
	// stays outside every request, and its time is charged to the caller.
	if s := layer["trace.unadopted_share"]; s > maxUnadoptedShare {
		res.Failures = append(res.Failures, fmt.Sprintf("%.1f %% of the spans recorded without a parent were never linked to a request (limit %.0f %%)", 100*s, 100*maxUnadoptedShare))
	}
	res.finish()
	return res, nil
}

func (r *runResult) absorb(m *measured) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	r.Failures = append(r.Failures, m.failures...)
}

func (r *runResult) finish() {
	r.Correct = r.Failed == 0 && len(r.Failures) == 0 && r.Attempted > 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
