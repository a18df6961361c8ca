package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// smokeOps is each workload's window, in operations, at smoke size.
var smokeOps = map[string]int{"submit-loop": 24, "match-scale": 20, "store-mixed": 40, "serve-open": 20}

// exactMetrics must read the same on two runs of one seed: they are
// counts made by the program, not times.
var exactMetrics = []string{
	"cbo.evals_per_tune", "matcher.rows_scanned_per_match", "matcher.rows_returned_per_match",
	"matcher.stage2_keys_per_match", "matcher.kv_calls_per_match", "matcher.match_accuracy",
	"dstore.wire_bytes_per_user_byte", "core.kv_calls_per_putprofile", "submit.tuned", "submit.stored",
}

// The prediction the workloads were chosen for: a layer a workload
// bypasses records nothing on it, a layer it exercises records something.
var (
	bypassed = map[string][]string{
		"submit-loop": {"gateway.self_ms", "dstore.client_self_us", "dstore.wire_share"},
		"match-scale": {"engine.share", "cbo.share", "gateway.self_ms", "dstore.wire_share"},
		"store-mixed": {"engine.share", "cbo.share", "matcher.share", "gateway.self_ms"},
		"serve-open":  {"dstore.wire_share"},
	}
	exercised = map[string][]string{
		"submit-loop": {"engine.share", "cbo.share", "matcher.share", "hstore.share"},
		"match-scale": {"matcher.share", "dstore.rs_share", "matcher.rows_scanned_per_match"},
		"store-mixed": {"dstore.wire_share", "dstore.rs_share", "dstore.applies_per_put", "store.get_p50_ms"},
		"serve-open":  {"gateway.share", "cbo.share", "gateway.handler_tune_ms", "serve.hi_p95_ms"},
	}
)

func smokeRun(t *testing.T, w workload, trace bool) *runResult {
	t.Helper()
	res, err := runOnce(w, runConfig{
		seed: 7, seconds: 1, maxOps: smokeOps[w.spec.Name], trace: trace,
		scale: 0.01, outDir: t.TempDir(), tmpDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", w.spec.Name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", w.spec.Name, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	return res
}

// TestSmoke runs every workload at about 1 % of its size, untraced and
// traced: every named metric must be emitted, every correctness check
// must pass, and the counts must repeat for the seed.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.spec.Name, func(t *testing.T) {
			e2e := smokeRun(t, w, false)
			for _, d := range endToEnd {
				if v, ok := e2e.Metrics[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.Name, v)
				}
			}

			first, second := smokeRun(t, w, true), smokeRun(t, w, true)
			for _, d := range perLayer {
				if v, ok := first.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v, want a number", d.Name, v)
				}
			}
			for _, name := range exactMetrics {
				if a, b := first.Metrics[name], second.Metrics[name]; a != b {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
				}
			}
			if a, b := first.Metrics["store.space_amp"], second.Metrics["store.space_amp"]; math.Abs(a-b) > 0.01*math.Max(a, b) {
				t.Errorf("store.space_amp differs between two runs of one seed: %v vs %v", a, b)
			}
			if first.Metrics["trace.spans"] == 0 {
				t.Error("traced run recorded no spans")
			}
			if _, err := os.Stat(first.spanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			for _, name := range bypassed[w.spec.Name] {
				if v := first.Metrics[name]; v != 0 {
					t.Errorf("%s = %v, want 0: the workload bypasses that layer", name, v)
				}
			}
			for _, name := range exercised[w.spec.Name] {
				if v := first.Metrics[name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0: the workload exercises that layer", name, v)
				}
			}
		})
	}
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and spec.go one
// definition: regenerate the file with `go run ./benchmark spec`.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `go run ./benchmark spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives, since the acceptance rule is
// written in terms of that function.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 40, 20, 30, 50})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles(10..50) = %v, %v; Python gives 15, 45", q1, q3)
	}
	if got := spread([]float64{100, 100, 100, 100}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueAt(start, 0, 50); !got.Equal(start) {
		t.Errorf("request 0 is due at %v, want the phase start", got)
	}
	if got := dueAt(start, 125, 50).Sub(start); got != 2500*time.Millisecond {
		t.Errorf("request 125 at 50/s is due after %v, want 2.5s", got)
	}
	// A stall does not move later due times: request 10 stays due at
	// start + 10/rate however late request 9 was sent.
	if a, b := dueAt(start, 10, 4), dueAt(start, 9, 4); a.Sub(b) != 250*time.Millisecond {
		t.Errorf("consecutive due times are %v apart, want 250ms", a.Sub(b))
	}
	if got := scheduledCount(2*time.Second, 117.5); got != 235 {
		t.Errorf("scheduledCount(2s, 117.5/s) = %d, want 235", got)
	}
	if got := scheduledCount(time.Second, 0.5); got != 1 {
		t.Errorf("scheduledCount(1s, 0.5/s) = %d, want 1", got)
	}
}

func TestSmoothRoundRobin(t *testing.T) {
	rr := newSmoothRR([]float64{5, 1, 1})
	counts := make([]int, 3)
	var firstSeven []int
	for i := 0; i < 70; i++ {
		k := rr.next()
		counts[k]++
		if i < 7 {
			firstSeven = append(firstSeven, k)
		}
	}
	if !reflect.DeepEqual(counts, []int{50, 10, 10}) {
		t.Errorf("70 picks at weights 5:1:1 gave %v, want [50 10 10]", counts)
	}
	if got := firstSeven; got[0] != 0 || got[6] != 0 {
		t.Errorf("one cycle is %v; the heavy item should open and close it, the light ones sit inside", got)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   verdict
	}{
		{"same", []float64{100, 100, 101, 99, 100}, higher, unchanged},
		{"within bound", []float64{95, 96, 94, 95, 95}, higher, unchanged},
		{"worse beyond bound", []float64{80, 81, 79, 80, 80}, higher, regressed},
		{"better beyond bound", []float64{120, 121, 119, 120, 120}, higher, improved},
		{"better beyond bound, one run overlapping", []float64{115, 116, 100.5, 115, 114}, higher, improved},
		{"noisy but every run better", []float64{150, 250, 200, 170, 230}, higher, improved},
		{"lower is better", []float64{120, 121, 119, 120, 120}, lower, regressed},
		{"too noisy to tell", []float64{60, 140, 100, 80, 120}, higher, unresolved},
	} {
		if got := judge(steady, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAdoptOrphansAndAttribute(t *testing.T) {
	// One request: a 100ns client call holding a 60ns wire call whose
	// server side (an orphan, adopted by containment) takes 40ns, plus a
	// second request running two children in parallel.
	spans := []span{
		{ID: 1, Req: 1, Layer: layerDClient, Name: "batchput", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Layer: layerWire, Name: "batchput", Start: 20, End: 80, key: "c:rs-0/batchput"},
		{ID: 3, Layer: layerRS, Name: "handle_batchput", Start: 30, End: 70, adopt: "c:rs-0/batchput"},
		{ID: 4, Req: 2, Layer: layerMatcher, Name: "match", Start: 200, End: 300},
		{ID: 5, Parent: 4, Req: 2, Layer: layerCore, Name: "scan_features", Start: 200, End: 300},
		{ID: 6, Parent: 4, Req: 2, Layer: layerCore, Name: "scan_features", Start: 250, End: 300},
	}
	adoptOrphans(spans)
	if spans[2].Parent != 2 || spans[2].Req != 1 {
		t.Fatalf("orphan handler span: parent %d req %d, want parent 2 req 1", spans[2].Parent, spans[2].Req)
	}
	lt := attribute(spans, func(root span) bool { return root.Name == "batchput" })
	if lt.requests != 1 || lt.selfNs[layerDClient] != 40 || lt.selfNs[layerWire] != 20 || lt.selfNs[layerRS] != 40 {
		t.Errorf("attribution of the write: %d requests, self %v; want client 40, wire 20, rs 40", lt.requests, lt.selfNs)
	}
	all := attribute(spans, nil)
	var sum float64
	for _, ns := range all.selfNs {
		sum += ns
	}
	if math.Abs(sum-all.rootNs) > 1e-9 {
		t.Errorf("self times sum to %v, the end-to-end time is %v (parallel children split the instant)", sum, all.rootNs)
	}
	if got := unadoptedShare(spans); got != 0 {
		t.Errorf("unadoptedShare = %v, want 0", got)
	}
	// A handler span no client-side call encloses stays outside every
	// request.
	stray := append(spans, span{ID: 7, Layer: layerRS, Name: "handle_get", Start: 400, End: 420, adopt: "c:rs-0/get"})
	adoptOrphans(stray)
	if got := unadoptedShare(stray); got != 0.5 {
		t.Errorf("unadoptedShare with one stray of two = %v, want 0.5", got)
	}
	if all.selfNs[layerCore] != 100 || all.selfNs[layerMatcher] != 0 {
		t.Errorf("parallel children: core %v matcher %v, want 100 and 0", all.selfNs[layerCore], all.selfNs[layerMatcher])
	}
}
