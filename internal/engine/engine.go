// Package engine is the MapReduce execution substrate: a phase-accurate
// simulator of Hadoop job execution standing in for the paper's 16-node
// EC2 cluster. Map/combine/reduce functions written in the jobdsl
// language are really executed over sampled input records to measure
// the job's statistics; the analytical phase model then computes task
// times at the dataset's nominal scale, and the scheduler packs tasks
// into waves over the cluster's slots. Runs can be profiled (producing
// Starfish-style profiles, at a runtime overhead) and sampled (running
// only k of the N map tasks plus reducers over their output, as the
// Starfish sampler does).
package engine

import (
	"fmt"
	"math/rand"
	"sync"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/data"
	"pstorm/internal/mrjob"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
)

// Engine executes MapReduce jobs on a simulated cluster. Safe for
// concurrent use.
type Engine struct {
	Cluster *cluster.Cluster

	// Seed drives all run-level randomness (split selection for
	// measurement, per-task node noise). Runs are numbered, and each
	// run's RNG is derived from (Seed, run number), so a fixed Seed
	// reproduces an entire experiment exactly.
	Seed int64

	// SampleRecordsPerTask is the number of records measured per sampled
	// split (default 200).
	SampleRecordsPerTask int

	// MeasureSplits is how many splits a full run measures statistics
	// from (default 5).
	MeasureSplits int

	// ProfilingSlowdown is the multiplicative task-time overhead of
	// running with the profiler's dynamic instrumentation on (default
	// 1.30, in line with Starfish's reported per-task overhead).
	ProfilingSlowdown float64

	mu         sync.Mutex
	runCounter int

	o *obs.Registry
}

// New returns an engine over cl with the given seed.
func New(cl *cluster.Cluster, seed int64) *Engine {
	return &Engine{Cluster: cl, Seed: seed, o: obs.NewRegistry()}
}

// Obs exposes the engine's metrics registry (nil on a zero-value
// Engine, which is fine: instrumentation is a no-op then).
func (e *Engine) Obs() *obs.Registry { return e.o }

// runMode names a run for the per-mode counters.
func runMode(opt RunOptions) string {
	switch {
	case opt.SampleMapTasks > 0:
		return "sample"
	case opt.Profiling:
		return "profiled"
	default:
		return "plain"
	}
}

// RunOptions selects the execution mode.
type RunOptions struct {
	// Profiling turns on dynamic instrumentation: the run produces a
	// profile and its tasks run ProfilingSlowdown× slower.
	Profiling bool

	// SampleMapTasks, when > 0, runs only that many randomly selected
	// map tasks (plus the reducers over their output) instead of the
	// whole job — the Starfish sampler. The result's profile then has
	// Complete == false.
	SampleMapTasks int
}

// RunResult is the outcome of one (simulated) job execution.
type RunResult struct {
	JobID     string
	RuntimeMs float64

	// Profile is non-nil iff the run was profiled.
	Profile *profile.Profile

	// Stats are the measured job statistics (exposed for tests and for
	// the experiment harness).
	Stats *Stats

	// MapModel / ReduceModel are the modelled per-task behaviours.
	MapModel    MapTaskModel
	ReduceModel ReduceTaskModel

	// NumMapTasks actually executed (may be the sample size).
	NumMapTasks int
}

func (e *Engine) defaults() (recs, msplits int, slow float64) {
	recs = e.SampleRecordsPerTask
	if recs <= 0 {
		recs = 200
	}
	msplits = e.MeasureSplits
	if msplits <= 0 {
		msplits = 5
	}
	slow = e.ProfilingSlowdown
	if slow <= 0 {
		slow = 1.30
	}
	return recs, msplits, slow
}

// Run executes the job described by spec over ds with configuration cfg.
func (e *Engine) Run(spec *mrjob.Spec, ds *data.Dataset, cfg conf.Config, opt RunOptions) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	recsPerSplit, measureSplits, slowdown := e.defaults()

	e.mu.Lock()
	e.runCounter++
	run := e.runCounter
	e.mu.Unlock()
	jobID := fmt.Sprintf("%s-run%04d", spec.Name, run)
	rng := rand.New(rand.NewSource(e.Seed*1_000_003 + int64(run)*8191))

	totalSplits := ds.Splits()
	numMaps := totalSplits
	sampling := opt.SampleMapTasks > 0
	if sampling {
		numMaps = opt.SampleMapTasks
		if numMaps > totalSplits {
			numMaps = totalSplits
		}
	}

	// Measure job statistics by executing the DSL functions over real
	// generated records. A sampling run measures exactly the splits it
	// executes; a full run measures a handful of splits.
	var mSplits []int
	if sampling {
		mSplits = PickSplits(totalSplits, numMaps, rng)
	} else {
		n := measureSplits
		if n > totalSplits {
			n = totalSplits
		}
		mSplits = PickSplits(totalSplits, n, rng)
	}
	stats, err := Measure(spec, ds, mSplits, recsPerSplit)
	if err != nil {
		return nil, err
	}

	in := InputFromStats(stats, e.Cluster)
	in.HasCombiner = spec.HasCombiner()

	splitBytes := float64(data.SplitBytes)
	if float64(ds.NominalBytes) < splitBytes {
		splitBytes = float64(ds.NominalBytes)
	}

	mt := ModelMapTask(in, cfg, splitBytes)
	if opt.Profiling {
		mt = scaleMapModel(mt, slowdown)
	}
	totalOutRecs := mt.OutRecords * float64(numMaps)
	totalOutBytesLogical := mt.OutBytesLogical * float64(numMaps)
	totalOutBytesDisk := mt.OutBytesOnDisk * float64(numMaps)
	rawRecsPerTask := splitBytes / stats.AvgInRecWidth * stats.MapPairsSel
	totalRawRecs := rawRecsPerTask * float64(numMaps)
	rt := ModelReduceTask(in, cfg, totalOutRecs, totalOutBytesLogical, totalOutBytesDisk, totalRawRecs, numMaps)
	if opt.Profiling {
		rt = scaleReduceModel(rt, slowdown)
	}

	sched := ScheduleJob(mt, rt, numMaps, cfg, e.Cluster, rng)

	e.o.Counter("engine_runs_total", "mode", runMode(opt)).Inc()
	e.o.Histogram("engine_job_runtime_ms", simBuckets).Observe(sched.MakespanMs)
	e.o.Histogram("engine_map_task_ms", simBuckets).Observe(mt.TotalMs)
	e.o.Histogram("engine_reduce_task_ms", simBuckets).Observe(rt.TotalMs)

	res := &RunResult{
		JobID:       jobID,
		RuntimeMs:   sched.MakespanMs,
		Stats:       stats,
		MapModel:    mt,
		ReduceModel: rt,
		NumMapTasks: numMaps,
	}
	if opt.Profiling {
		res.Profile = e.buildProfile(jobID, spec, ds, cfg, stats, mt, rt, sched, numMaps, !sampling, rng)
	}
	return res, nil
}

// simBuckets are the histogram buckets of simulated times, which span
// µs to hours: exponential buckets fit them better than the latency
// defaults.
var simBuckets = obs.ExpBuckets(100, 4, 12)

func scaleMapModel(mt MapTaskModel, f float64) MapTaskModel {
	out := mt
	out.PhaseMs = make(map[string]float64, len(mt.PhaseMs))
	for k, v := range mt.PhaseMs {
		out.PhaseMs[k] = v * f
	}
	out.TotalMs = mt.TotalMs * f
	return out
}

func scaleReduceModel(rt ReduceTaskModel, f float64) ReduceTaskModel {
	out := rt
	out.PhaseMs = make(map[string]float64, len(rt.PhaseMs))
	for k, v := range rt.PhaseMs {
		out.PhaseMs[k] = v * f
	}
	out.TotalMs = rt.TotalMs * f
	out.ShuffleMs = rt.ShuffleMs * f
	return out
}

// buildProfile assembles a Starfish-style profile from a profiled run.
// Cost factors are the cluster's true hardware costs scaled by the
// node-utilization noise the profiled tasks actually experienced — this
// is what gives cost factors their high variance across sample profiles
// of the same job (§4.1.1), while the data-flow statistics, being
// measured record counts, vary only with which splits were sampled.
func (e *Engine) buildProfile(jobID string, spec *mrjob.Spec, ds *data.Dataset, cfg conf.Config,
	st *Stats, mt MapTaskModel, rt ReduceTaskModel, sched ScheduleResult,
	numMaps int, complete bool, rng *rand.Rand) *profile.Profile {

	cl := e.Cluster
	p := &profile.Profile{
		JobID:           jobID,
		JobName:         spec.Name,
		DatasetName:     ds.Name,
		Config:          cfg,
		NumMapTasks:     numMaps,
		NumReduceTasks:  cfg.ReduceTasks,
		Complete:        complete,
		SampledMapTasks: numMaps,
		RuntimeMs:       sched.MakespanMs,
		Map:             profile.NewSide(),
		Reduce:          profile.NewSide(),
	}
	if complete {
		p.InputBytes = ds.NominalBytes
		p.InputRecords = ds.NominalRecords()
	} else {
		p.InputBytes = int64(float64(numMaps) * float64(data.SplitBytes))
		if p.InputBytes > ds.NominalBytes {
			p.InputBytes = ds.NominalBytes
		}
		p.InputRecords = int64(float64(p.InputBytes) / st.AvgInRecWidth)
	}

	// Cost factors recorded in a profile carry the placement noise the
	// profiled tasks actually saw — averaged across tasks, and damped by
	// within-task averaging (a rate measured over a whole 64 MB task
	// regresses toward the mean even on a loaded node) — plus
	// independent per-factor measurement jitter: data layout, page
	// cache state, and interference differ per run even on one cluster.
	// Complete profiles average many placements, so their recorded
	// factors are dominated by the jitter; a 1-task sample keeps half of
	// its single placement's deviation (damped to ~a third), which still makes cost factors
	// the high-variance features of §4.1.1.
	damp := func(n float64) float64 { return 1 + (n-1)*0.3 }
	mNoise := damp(meanOf(sched.MapNoise))
	rNoise := damp(meanOf(sched.ReduceNoise))
	jitter := func() float64 { return 1 + rng.NormFloat64()*0.10 }

	// Map side.
	m := &p.Map
	m.DataFlow[profile.MapSizeSel] = st.MapSizeSel
	m.DataFlow[profile.MapPairsSel] = st.MapPairsSel
	m.DataFlow[profile.CombineSizeSel] = st.CombineSizeSel
	m.DataFlow[profile.CombinePairsSel] = st.CombinePairsSel
	m.DataFlow[profile.MapInRecWidth] = st.AvgInRecWidth
	m.DataFlow[profile.MapOutRecWidth] = st.MapOutRecWidth
	m.DataFlow[profile.CombineOutWidth] = st.CombineOutWidth
	m.DataFlow[profile.KeyHeapsK] = st.HeapsK
	m.DataFlow[profile.KeyHeapsBeta] = st.HeapsBeta
	m.CostFactors[profile.ReadHDFSIOCost] = cl.ReadHDFSNsPerByte * mNoise * jitter()
	m.CostFactors[profile.ReadLocalIOCost] = cl.ReadLocalNsPerByte * mNoise * jitter()
	m.CostFactors[profile.WriteLocalIOCost] = cl.WriteLocalNsPerByte * mNoise * jitter()
	m.CostFactors[profile.MapCPUCost] = st.MapStepsPerRec * cl.CPUNsPerStep * mNoise * jitter()
	m.CostFactors[profile.CombineCPUCost] = st.CombineStepsPerRec * cl.CPUNsPerStep * mNoise * jitter()
	for ph, v := range mt.PhaseMs {
		m.PhaseMs[ph] = v * mNoise
	}
	m.TaskTimeMs = mt.TotalMs * mNoise
	m.Tasks = numMaps

	// Reduce side.
	r := &p.Reduce
	r.DataFlow[profile.RedSizeSel] = st.RedSizeSel
	r.DataFlow[profile.RedPairsSel] = st.RedPairsSel
	r.DataFlow[profile.RedInRecWidth] = st.RedInRecWidth
	r.DataFlow[profile.RedOutRecWidth] = st.RedOutRecWidth
	r.DataFlow[profile.RedOutPerGroup] = st.RedOutPerGroupRecs
	r.CostFactors[profile.ReadLocalIOCost] = cl.ReadLocalNsPerByte * rNoise * jitter()
	r.CostFactors[profile.WriteLocalIOCost] = cl.WriteLocalNsPerByte * rNoise * jitter()
	r.CostFactors[profile.WriteHDFSIOCost] = cl.WriteHDFSNsPerByte * rNoise * jitter()
	r.CostFactors[profile.NetworkCost] = cl.NetworkNsPerByte * rNoise * jitter()
	r.CostFactors[profile.ReduceCPUCost] = st.RedStepsPerRec * cl.CPUNsPerStep * rNoise * jitter()
	for ph, v := range rt.PhaseMs {
		r.PhaseMs[ph] = v * rNoise
	}
	r.TaskTimeMs = rt.TotalMs * rNoise
	r.Tasks = cfg.ReduceTasks

	p.AttachStatics(spec)
	return p
}

// CollectSample runs the Starfish sampler: k map tasks (plus reducers
// over their output) with profiling on, returning the sample profile and
// the simulated runtime cost of collecting it. k=1 is PStorM's 1-task
// sample (§3); k = ceil(0.1*N) is Starfish's 10%-profile.
func (e *Engine) CollectSample(spec *mrjob.Spec, ds *data.Dataset, cfg conf.Config, k int) (*profile.Profile, float64, error) {
	if k < 1 {
		k = 1
	}
	res, err := e.Run(spec, ds, cfg, RunOptions{Profiling: true, SampleMapTasks: k})
	if err != nil {
		return nil, 0, err
	}
	return res.Profile, res.RuntimeMs, nil
}
