package cbo

import (
	"context"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/engine"
	"pstorm/internal/whatif"
	"pstorm/internal/workloads"
)

func profileFor(t testing.TB, job, ds string) (*engine.RunResult, *cluster.Cluster, int64) {
	t.Helper()
	cl := cluster.Default16()
	eng := engine.New(cl, 42)
	spec, err := workloads.JobByName(job)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workloads.DatasetByName(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := conf.Default()
	cfg.UseCombiner = spec.HasCombiner()
	run, err := eng.Run(spec, d, cfg, engine.RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	return run, cl, d.NominalBytes
}

func TestOptimizeNeverWorseThanDefault(t *testing.T) {
	run, cl, in := profileFor(t, "cooccurrence-pairs", "wiki-35g")
	rec, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rec.PredictedMs > rec.DefaultMs {
		t.Errorf("recommendation predicted %v worse than default %v", rec.PredictedMs, rec.DefaultMs)
	}
	if err := rec.Config.Validate(); err != nil {
		t.Errorf("recommended config invalid: %v", err)
	}
	if rec.Evaluations <= 1 {
		t.Errorf("only %d What-If evaluations recorded", rec.Evaluations)
	}
}

func TestOptimizeFindsBigWinForShuffleHeavyJob(t *testing.T) {
	run, cl, in := profileFor(t, "cooccurrence-pairs", "wiki-35g")
	rec, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rec.PredictedSpeedup() < 3 {
		t.Errorf("co-occurrence predicted speedup %.2fx, want > 3x", rec.PredictedSpeedup())
	}
	if rec.Config.ReduceTasks < 10 {
		t.Errorf("recommended only %d reducers for a shuffle-heavy job", rec.Config.ReduceTasks)
	}
}

func TestOptimizeDeterministicPerSeed(t *testing.T) {
	run, cl, in := profileFor(t, "wordcount", "wiki-35g")
	a, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config != b.Config || a.PredictedMs != b.PredictedMs {
		t.Error("same seed produced different recommendations")
	}
}

func TestOptimizeRecommendationHoldsUpInWhatIf(t *testing.T) {
	run, cl, in := profileFor(t, "bigram-relfreq", "wiki-35g")
	rec, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Re-evaluating the recommendation independently must agree.
	ms, err := whatif.PredictRuntime(run.Profile, in, cl, rec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if ms != rec.PredictedMs {
		t.Errorf("re-evaluated prediction %v != recorded %v", ms, rec.PredictedMs)
	}
}

func TestOptions(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ExploreSamples <= 0 || o.ExploitSteps <= 0 || o.Restarts <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	run, cl, in := profileFor(t, "wordcount", "wiki-35g")
	cheap, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{ExploreSamples: 5, ExploitSteps: 3, Restarts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Evaluations > 1+5+3 {
		t.Errorf("budget exceeded: %d evaluations", cheap.Evaluations)
	}
}

// PredictedSpeedup is DefaultMs / PredictedMs.
func (r *Recommendation) PredictedSpeedup() float64 {
	if r.PredictedMs <= 0 {
		return 0
	}
	return r.DefaultMs / r.PredictedMs
}

func TestPredictedSpeedupZeroGuard(t *testing.T) {
	r := &Recommendation{PredictedMs: 0, DefaultMs: 100}
	if r.PredictedSpeedup() != 0 {
		t.Error("zero predicted runtime should yield 0 speedup, not Inf")
	}
}

// BenchmarkOptimize times one full search at the default effort — 301
// What-If evaluations — with every prediction computed directly.
func BenchmarkOptimize(b *testing.B) {
	run, cl, in := profileFor(b, "wordcount", "wiki-35g")
	b.ReportAllocs()
	for b.Loop() {
		rec, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Evaluations != 301 {
			b.Fatalf("%d evaluations, want 301", rec.Evaluations)
		}
	}
}

// BenchmarkOptimizeWarm times the same search through an Evaluator warmed
// by one identical tune, so every candidate is a cache hit: the path a
// resubmitted job takes.
func BenchmarkOptimizeWarm(b *testing.B) {
	run, cl, in := profileFor(b, "wordcount", "wiki-35g")
	opt := Options{Seed: 7, Evaluator: whatif.NewEvaluator(whatif.EvaluatorOptions{})}
	if _, err := Optimize(context.Background(), run.Profile, in, cl, true, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		rec, err := Optimize(context.Background(), run.Profile, in, cl, true, opt)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Evaluations != 301 {
			b.Fatalf("%d evaluations, want 301", rec.Evaluations)
		}
	}
}
