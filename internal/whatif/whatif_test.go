package whatif

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/workloads"
)

func collect(t testing.TB, jobName, dsName string, seed int64) (*engine.Engine, *data.Dataset, *enginePair) {
	t.Helper()
	cl := cluster.Default16()
	eng := engine.New(cl, seed)
	spec, err := workloads.JobByName(jobName)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workloads.DatasetByName(dsName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := conf.Default()
	cfg.UseCombiner = spec.HasCombiner()
	run, err := eng.Run(spec, ds, cfg, engine.RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, ds, &enginePair{run: run, cfg: cfg}
}

type enginePair struct {
	run *engine.RunResult
	cfg conf.Config
}

// TestPredictionTracksObservedRuntime: the What-If engine, given a
// job's own complete profile and the same <d, r, c>, must predict a
// runtime close to the simulated observation (modulo profiling overhead
// and node noise).
func TestPredictionTracksObservedRuntime(t *testing.T) {
	for _, job := range []string{"wordcount", "cooccurrence-pairs", "sort"} {
		dsName := "wiki-35g"
		if job == "sort" {
			dsName = "tera-1g"
		}
		eng, ds, p := collect(t, job, dsName, 42)
		pred, err := PredictRuntime(p.run.Profile, ds.NominalBytes, eng.Cluster, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The profiled observation carries the 1.3x instrumentation
		// slowdown; compare against the unprofiled expectation.
		observed := p.run.RuntimeMs / 1.3
		ratio := pred / observed
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: prediction %v vs observed %v (ratio %.2f) — out of tolerance",
				job, pred, observed, ratio)
		}
	}
}

func TestPredictionRespondsToReducerCount(t *testing.T) {
	eng, ds, p := collect(t, "cooccurrence-pairs", "wiki-35g", 7)
	one := p.cfg
	many := p.cfg
	many.ReduceTasks = 27
	p1, err := PredictRuntime(p.run.Profile, ds.NominalBytes, eng.Cluster, one)
	if err != nil {
		t.Fatal(err)
	}
	p27, err := PredictRuntime(p.run.Profile, ds.NominalBytes, eng.Cluster, many)
	if err != nil {
		t.Fatal(err)
	}
	if p27 >= p1 {
		t.Errorf("27 reducers predicted %v >= 1 reducer %v for a shuffle-heavy job", p27, p1)
	}
	if p1/p27 < 2 {
		t.Errorf("reducer speedup prediction %.2fx too small for co-occurrence", p1/p27)
	}
}

func TestPredictionScalesWithInputSize(t *testing.T) {
	eng, ds, p := collect(t, "wordcount", "wiki-35g", 7)
	small, err := PredictRuntime(p.run.Profile, ds.NominalBytes/8, eng.Cluster, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PredictRuntime(p.run.Profile, ds.NominalBytes, eng.Cluster, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small >= big {
		t.Errorf("1/8 input predicted %v >= full input %v", small, big)
	}
}

func TestPredictionDeterministic(t *testing.T) {
	eng, ds, p := collect(t, "wordcount", "wiki-35g", 7)
	a, _ := PredictRuntime(p.run.Profile, ds.NominalBytes, eng.Cluster, p.cfg)
	b, _ := PredictRuntime(p.run.Profile, ds.NominalBytes, eng.Cluster, p.cfg)
	if a != b {
		t.Errorf("What-If predictions differ: %v vs %v", a, b)
	}
}

func TestPredictDefaultsToProfileInput(t *testing.T) {
	eng, ds, p := collect(t, "wordcount", "wiki-35g", 7)
	explicit, err := Predict(Question{Profile: p.run.Profile, InputBytes: ds.NominalBytes, Cluster: eng.Cluster, Config: p.cfg})
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := Predict(Question{Profile: p.run.Profile, Cluster: eng.Cluster, Config: p.cfg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(explicit.RuntimeMs-implicit.RuntimeMs) > 1e-9 {
		t.Errorf("implicit input size gave %v, explicit %v", implicit.RuntimeMs, explicit.RuntimeMs)
	}
	if implicit.NumMapTasks != ds.Splits() {
		t.Errorf("NumMapTasks = %d, want %d", implicit.NumMapTasks, ds.Splits())
	}
}

func TestPredictErrors(t *testing.T) {
	eng, _, p := collect(t, "wordcount", "wiki-35g", 7)
	if _, err := Predict(Question{Profile: nil, Cluster: eng.Cluster, Config: p.cfg}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Predict(Question{Profile: p.run.Profile, Cluster: nil, Config: p.cfg}); err == nil {
		t.Error("nil cluster accepted")
	}
	bad := p.cfg
	bad.ReduceTasks = 0
	if _, err := Predict(Question{Profile: p.run.Profile, Cluster: eng.Cluster, Config: bad}); err == nil {
		t.Error("invalid config accepted")
	}
	orphan := p.run.Profile.Clone()
	orphan.InputBytes = 0
	if _, err := Predict(Question{Profile: orphan, Cluster: eng.Cluster, Config: p.cfg}); err == nil {
		t.Error("profile without input size and no explicit size accepted")
	}
}

// TestPredictMatchesSimulatedSchedule checks the closed-form schedule
// behind Predict against the task-by-task simulation on real profiles:
// ScheduleJob, fed the prediction's own task models on the same cluster
// without noise or failures, must reproduce RuntimeMs bit for bit at
// every configuration the optimizer could draw.
func TestPredictMatchesSimulatedSchedule(t *testing.T) {
	for _, c := range []struct{ job, ds string }{
		{"wordcount", "wiki-35g"},
		{"sort", "tera-35g"},
		{"pigmix-l2", "pigmix-1g"},
	} {
		eng, ds, p := collect(t, c.job, c.ds, 7)
		quiet := *eng.Cluster
		quiet.NoiseStdDev, quiet.TaskFailureProb = 0, 0
		space := conf.DefaultSpace(eng.Cluster.ReduceSlots())
		r := rand.New(rand.NewSource(34))
		for i := 0; i < 500; i++ {
			cfg := space.Sample(r)
			pred, err := Predict(Question{Profile: p.run.Profile, InputBytes: ds.NominalBytes, Cluster: eng.Cluster, Config: cfg})
			if err != nil {
				t.Fatalf("%s/%s config %d: %v", c.job, c.ds, i, err)
			}
			sim := engine.ScheduleJob(pred.MapModel, pred.ReduceModel, pred.NumMapTasks, cfg, &quiet, rand.New(rand.NewSource(int64(i))))
			if pred.RuntimeMs != sim.MakespanMs {
				t.Fatalf("%s/%s config %d (%v): predicted %v, simulated %v", c.job, c.ds, i, cfg, pred.RuntimeMs, sim.MakespanMs)
			}
		}
	}
}

// A prediction costs the same allocations, in count and in bytes,
// whatever the job's map count: the schedule is evaluated per wave,
// never per task. (A per-task schedule allocates the same number of
// slices at any size, so only the bytes tell the two apart.)
func TestPredictAllocsIndependentOfMapCount(t *testing.T) {
	eng, _, p := collect(t, "wordcount", "randomtext-1g", 7)
	predict := func(maps int64) func() {
		q := Question{Profile: p.run.Profile, InputBytes: maps * data.SplitBytes, Cluster: eng.Cluster, Config: p.cfg}
		return func() {
			if _, err := Predict(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	one, many := predict(1), predict(5000)
	if a1, a5k := testing.AllocsPerRun(20, one), testing.AllocsPerRun(20, many); a1 != a5k {
		t.Errorf("Predict allocates %v times at 1 map and %v at 5000 maps", a1, a5k)
	}
	if b1, b5k := bytesPerRun(20, one), bytesPerRun(20, many); b1 != b5k {
		t.Errorf("Predict allocates %d bytes at 1 map and %d at 5000 maps", b1, b5k)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkPredict times one What-If prediction of a job's own profile
// at its own input: a 561-map job (wiki-35g) and a 16-map one.
func BenchmarkPredict(b *testing.B) {
	for _, ds := range []string{"wiki-35g", "randomtext-1g"} {
		eng, d, p := collect(b, "wordcount", ds, 7)
		q := Question{Profile: p.run.Profile, InputBytes: d.NominalBytes, Cluster: eng.Cluster, Config: p.cfg}
		b.Run(fmt.Sprintf("wordcount/%s/maps=%d", ds, d.Splits()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Predict(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
