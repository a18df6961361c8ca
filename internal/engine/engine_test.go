package engine

import (
	"math"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/data"
	"pstorm/internal/profile"
)

func testEngine(seed int64) *Engine {
	return New(cluster.Default16(), seed)
}

func TestScheduleJobWaves(t *testing.T) {
	cl := cluster.Default16()
	mt := MapTaskModel{TotalMs: 1000}
	cfg := conf.Default()
	// 30 slots, 60 tasks = 2 waves of 1000ms each. With a zero-length
	// reducer the makespan is the maps-done time.
	if done := ExpectedMakespan(mt, ReduceTaskModel{}, 60, cfg, cl); done != 2000 {
		t.Errorf("maps done at %v, want 2000 (2 waves)", done)
	}
	// Shuffle overlaps maps but cannot finish before the last one.
	rt := ReduceTaskModel{TotalMs: 100, ShuffleMs: 50}
	if got := ExpectedMakespan(mt, rt, 60, cfg, cl); got != 2000+50 {
		t.Errorf("makespan = %v, want 2050 (post-shuffle work after last map)", got)
	}
}

func TestScheduleJobReduceWaves(t *testing.T) {
	cl := cluster.Default16()
	mt := MapTaskModel{TotalMs: 100}
	rt := ReduceTaskModel{TotalMs: 1000, ShuffleMs: 0}
	one := conf.Default()
	sixty := conf.Default()
	sixty.ReduceTasks = 60 // 2 reduce waves on 30 slots
	thirty := conf.Default()
	thirty.ReduceTasks = 30
	m1 := ExpectedMakespan(mt, rt, 30, one, cl)
	m30 := ExpectedMakespan(mt, rt, 30, thirty, cl)
	m60 := ExpectedMakespan(mt, rt, 30, sixty, cl)
	if m30 != m1 {
		t.Errorf("30 reducers in one wave (%v) should cost the same wall-clock as 1 (%v)", m30, m1)
	}
	if m60 <= m30 {
		t.Errorf("60 reducers (2 waves, %v) should take longer than 30 (%v)", m60, m30)
	}
}

func TestScheduleJobNoiseChangesPerTaskTimes(t *testing.T) {
	cl := cluster.Default16()
	mt := MapTaskModel{TotalMs: 1000}
	rt := ReduceTaskModel{TotalMs: 100, ShuffleMs: 10}
	res := ScheduleJob(mt, rt, 20, conf.Default(), cl, newTestRand())
	if len(res.MapNoise) != 20 {
		t.Fatalf("MapNoise has %d entries", len(res.MapNoise))
	}
	same := true
	for _, n := range res.MapNoise[1:] {
		if n != res.MapNoise[0] {
			same = false
		}
	}
	if same {
		t.Error("all noise draws identical")
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	ds := data.New("d", data.KindWikipedia, 2*data.GB, 5)
	a, err := testEngine(42).Run(identitySpec(), ds, conf.Default(), RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := testEngine(42).Run(identitySpec(), ds, conf.Default(), RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeMs != b.RuntimeMs {
		t.Errorf("runtimes differ for same seed: %v vs %v", a.RuntimeMs, b.RuntimeMs)
	}
	if a.Profile.Map.CostFactors[profile.MapCPUCost] != b.Profile.Map.CostFactors[profile.MapCPUCost] {
		t.Error("profiles differ for same seed")
	}
	c, err := testEngine(43).Run(identitySpec(), ds, conf.Default(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.RuntimeMs == a.RuntimeMs {
		t.Error("different seeds produced identical runtimes (no noise?)")
	}
}

func TestRunProfilingCostsTime(t *testing.T) {
	ds := data.New("d", data.KindWikipedia, 4*data.GB, 5)
	plain, err := testEngine(1).Run(identitySpec(), ds, conf.Default(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := testEngine(1).Run(identitySpec(), ds, conf.Default(), RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	if profiled.RuntimeMs <= plain.RuntimeMs {
		t.Errorf("profiled run (%v) not slower than plain (%v)", profiled.RuntimeMs, plain.RuntimeMs)
	}
	if plain.Profile != nil {
		t.Error("unprofiled run should not produce a profile")
	}
	if profiled.Profile == nil || !profiled.Profile.Complete {
		t.Error("profiled full run should produce a complete profile")
	}
}

func TestRunProfileContents(t *testing.T) {
	ds := data.New("d", data.KindWikipedia, 2*data.GB, 5)
	res, err := testEngine(9).Run(identitySpec(), ds, conf.Default(), RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.JobName != "identity" || p.DatasetName != "d" {
		t.Errorf("profile identity fields: %q/%q", p.JobName, p.DatasetName)
	}
	if p.InputBytes != ds.NominalBytes {
		t.Errorf("InputBytes = %d, want nominal %d", p.InputBytes, ds.NominalBytes)
	}
	if p.NumMapTasks != ds.Splits() {
		t.Errorf("NumMapTasks = %d, want %d", p.NumMapTasks, ds.Splits())
	}
	for _, f := range profile.MapDataFlowFeatures {
		if _, ok := p.Map.DataFlow[f]; !ok {
			t.Errorf("map dataflow missing %s", f)
		}
	}
	for _, f := range profile.MapCostFeatures {
		if v := p.Map.CostFactors[f]; v <= 0 && f != profile.CombineCPUCost {
			t.Errorf("map cost factor %s = %v", f, v)
		}
	}
	for _, f := range profile.ReduceCostFeatures {
		if v := p.Reduce.CostFactors[f]; v <= 0 {
			t.Errorf("reduce cost factor %s = %v", f, v)
		}
	}
	if p.Map.StaticCFG == "" || p.Reduce.StaticCFG == "" {
		t.Error("profile missing CFG statics")
	}
	if p.RuntimeMs != res.RuntimeMs {
		t.Error("profile runtime != run runtime")
	}
}

func TestSamplerModes(t *testing.T) {
	ds := data.New("d", data.KindWikipedia, 8*data.GB, 5) // 128 splits
	eng := testEngine(3)

	one, cost1, err := eng.CollectSample(identitySpec(), ds, conf.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Complete {
		t.Error("1-task sample must not be Complete")
	}
	if one.SampledMapTasks != 1 || one.NumMapTasks != 1 {
		t.Errorf("sample tasks = %d/%d, want 1/1", one.SampledMapTasks, one.NumMapTasks)
	}
	if one.InputBytes >= ds.NominalBytes {
		t.Error("sample input bytes should reflect the sample, not the dataset")
	}

	ten, cost10, err := eng.CollectSample(identitySpec(), ds, conf.Default(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if ten.SampledMapTasks != 13 {
		t.Errorf("10%% sample tasks = %d, want 13", ten.SampledMapTasks)
	}
	if cost10 <= cost1 {
		t.Errorf("13-task sampling (%v) should cost more than 1-task (%v)", cost10, cost1)
	}

	// Oversized samples clamp to the dataset.
	all, _, err := eng.CollectSample(identitySpec(), ds, conf.Default(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if all.SampledMapTasks != ds.Splits() {
		t.Errorf("oversized sample = %d tasks, want %d", all.SampledMapTasks, ds.Splits())
	}
}

func TestSampleCostFactorsVaryMoreThanDataflow(t *testing.T) {
	// §4.1.1: across repeated 1-task samples of the same job, cost
	// factors vary much more than data-flow statistics.
	ds := data.New("d", data.KindWikipedia, 8*data.GB, 5)
	eng := testEngine(11)
	var costs, flows []float64
	for i := 0; i < 12; i++ {
		s, _, err := eng.CollectSample(identitySpec(), ds, conf.Default(), 1)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, s.Map.CostFactors[profile.ReadHDFSIOCost])
		flows = append(flows, s.Map.DataFlow[profile.MapPairsSel])
	}
	if cv(costs) < 3*cv(flows) {
		t.Errorf("cost factor CV %.4f not >> dataflow CV %.4f", cv(costs), cv(flows))
	}
}

func cv(xs []float64) float64 {
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	varr := 0.0
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(xs))
	return math.Sqrt(varr) / mean
}

func TestRunValidatesInputs(t *testing.T) {
	ds := data.New("d", data.KindTeraGen, data.GB, 1)
	bad := conf.Default()
	bad.ReduceTasks = 0
	if _, err := testEngine(1).Run(identitySpec(), ds, bad, RunOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
	spec := identitySpec()
	spec.Source = "not valid"
	if _, err := testEngine(1).Run(spec, ds, conf.Default(), RunOptions{}); err == nil {
		t.Error("invalid job source accepted")
	}
}

func TestRunTunedConfigBeatsDefaultForShuffleHeavyJob(t *testing.T) {
	// The core premise of the whole system: a shuffle-heavy job gets
	// dramatically faster with sensible reducer counts.
	ds := data.New("d", data.KindWikipedia, 16*data.GB, 5)
	eng := testEngine(21)
	spec := expandSpec() // expands 3x into a single key
	def := conf.Default()
	defRun, err := eng.Run(spec, ds, def, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuned := def
	tuned.ReduceTasks = 27
	tuned.IOSortRecordPercent = 0.25
	tunedRun, err := eng.Run(spec, ds, tuned, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if speedup := defRun.RuntimeMs / tunedRun.RuntimeMs; speedup < 1.5 {
		t.Errorf("tuning speedup = %.2fx, want > 1.5x", speedup)
	}
}
