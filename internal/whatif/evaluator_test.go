package whatif

import (
	"fmt"
	"sync"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/engine"
	"pstorm/internal/workloads"
)

func evaluatorFixture(t *testing.T) (*Evaluator, *engine.RunResult, *cluster.Cluster, int64) {
	t.Helper()
	cl := cluster.Default16()
	eng := engine.New(cl, 42)
	spec, err := workloads.JobByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workloads.DatasetByName("wiki-35g")
	if err != nil {
		t.Fatal(err)
	}
	cfg := conf.Default()
	cfg.UseCombiner = spec.HasCombiner()
	run, err := eng.Run(spec, ds, cfg, engine.RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewEvaluator(EvaluatorOptions{}), run, cl, ds.NominalBytes
}

func TestQuantizeIdempotentAndFixesDefaults(t *testing.T) {
	def := conf.Default()
	if Quantize(def) != def {
		t.Error("the default config's floats must be fixed points of the quantization grid")
	}
	c := def
	c.IOSortSpillPercent = 0.8000000004
	q := Quantize(c)
	if q.IOSortSpillPercent != 0.8 {
		t.Errorf("quantized spill percent %v, want 0.8", q.IOSortSpillPercent)
	}
	if Quantize(q) != q {
		t.Error("Quantize must be idempotent")
	}
}

func TestEvaluatorHitsAndMisses(t *testing.T) {
	e, run, cl, in := evaluatorFixture(t)
	cfg := conf.Default()
	first, err := e.PredictRuntime(run.Profile, in, cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Misses() != 1 || e.Hits() != 0 || e.Len() != 1 {
		t.Fatalf("after first call: hits=%d misses=%d len=%d", e.Hits(), e.Misses(), e.Len())
	}
	second, err := e.PredictRuntime(run.Profile, in, cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("cache hit returned %v, computed %v", second, first)
	}
	if e.Hits() != 1 || e.Misses() != 1 {
		t.Errorf("after repeat call: hits=%d misses=%d", e.Hits(), e.Misses())
	}
	direct, err := PredictRuntime(run.Profile, in, cl, Quantize(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if first != direct {
		t.Errorf("cached prediction %v differs from direct What-If %v", first, direct)
	}
	if ms, ok := e.Cached(run.Profile, in, cl, cfg); !ok || ms != first {
		t.Errorf("Cached returned (%v, %v), want (%v, true)", ms, ok, first)
	}
	if _, ok := e.Cached(run.Profile, in+1, cl, cfg); ok {
		t.Error("Cached answered a question it never computed")
	}
}

func TestEvaluatorBypassesWithoutIdentity(t *testing.T) {
	e, run, cl, in := evaluatorFixture(t)
	anon := run.Profile.Clone()
	anon.JobID = ""
	if _, err := e.PredictRuntime(anon, in, cl, conf.Default()); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 || e.Hits() != 0 || e.Misses() != 0 {
		t.Error("profiles without a JobID must bypass the cache entirely")
	}
}

func TestEvaluatorLRUBound(t *testing.T) {
	e := NewEvaluator(EvaluatorOptions{})
	e.max = 4
	_, run, cl, in := evaluatorFixture(t)
	cfg := conf.Default()
	for i := 0; i < 10; i++ {
		c := cfg
		c.ReduceTasks = i + 1
		if _, err := e.PredictRuntime(run.Profile, in, cl, c); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 4 {
		t.Errorf("cache holds %d entries, want the bound 4", e.Len())
	}
	// The oldest entries were evicted; re-asking recomputes.
	misses := e.Misses()
	c := cfg
	c.ReduceTasks = 1
	if _, err := e.PredictRuntime(run.Profile, in, cl, c); err != nil {
		t.Fatal(err)
	}
	if e.Misses() != misses+1 {
		t.Error("evicted entry was served from cache")
	}
}

func TestEvaluatorConcurrentIdentical(t *testing.T) {
	e, run, cl, in := evaluatorFixture(t)
	cfgs := make([]conf.Config, 8)
	for i := range cfgs {
		cfgs[i] = conf.Default()
		cfgs[i].ReduceTasks = i + 1
	}
	want := make([]float64, len(cfgs))
	for i, c := range cfgs {
		ms, err := PredictRuntime(run.Profile, in, cl, Quantize(c))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, c := range cfgs {
					ms, err := e.PredictRuntime(run.Profile, in, cl, c)
					if err != nil {
						errs <- err
						return
					}
					if ms != want[i] {
						errs <- fmt.Errorf("config %d: got %v, want %v", i, ms, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e.Hits()+e.Misses() != 8*4*8 {
		t.Errorf("hits %d + misses %d != %d calls", e.Hits(), e.Misses(), 8*4*8)
	}
}
