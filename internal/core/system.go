package core

import (
	"context"
	"fmt"
	"time"

	"pstorm/internal/cbo"
	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/matcher"
	"pstorm/internal/mrjob"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
	"pstorm/internal/whatif"
)

// System is the PStorM daemon of Fig 1.2: it receives job submissions,
// runs the 1-task sampler, probes the profile store through the
// matcher, and either (a) hands the matched profile to the cost-based
// optimizer and runs the job tuned with profiling off, or (b) runs the
// job with profiling on and stores the collected profile for future
// submissions.
type System struct {
	Store   *Store
	Engine  *engine.Engine
	Matcher *matcher.Matcher
	Cluster *cluster.Cluster

	// CBO configures the optimizer search.
	CBO cbo.Options

	// SampleTasks is the sampler size; PStorM uses 1 (§3).
	SampleTasks int

	// Evaluator memoizes What-If evaluations across tunes (nil: every
	// tune computes its predictions from scratch).
	Evaluator *whatif.Evaluator

	// Obs, when non-nil, receives the tuning metrics
	// (tune_evaluations_total, tune_evaluations_per_tune,
	// tune_latency_ms).
	Obs *obs.Registry

	// Now is the clock used for tune latency measurement (injectable for
	// tests; NewSystem sets the wall clock).
	Now func() time.Time
}

// NewSystem wires a PStorM system together.
func NewSystem(store *Store, eng *engine.Engine) *System {
	return &System{
		Store:       store,
		Engine:      eng,
		Matcher:     matcher.New(),
		Cluster:     eng.Cluster,
		SampleTasks: 1,
		Now:         time.Now,
	}
}

// TuneOptions bound one tuning request.
type TuneOptions struct {
	// Budget caps the tune's What-If evaluations (0: the full search
	// effort).
	Budget int
	// Deadline bounds the tune's wall-clock time; past it the search
	// aborts with context.DeadlineExceeded (0: no deadline beyond the
	// caller's context).
	Deadline time.Duration
	// Seed overrides the optimizer's search seed for this tune (0: the
	// system's CBO seed). The recommendation is a deterministic
	// function of (profile, input size, cluster, seed, budget).
	Seed int64
}

// ProfileHasCombiner derives combiner presence from a profile's static
// features: the map side records the combiner's identity (possibly via
// profile composition) under the COMBINER categorical, empty when the
// job has none.
func ProfileHasCombiner(p *profile.Profile) bool {
	return p != nil && p.Map.StaticCategorical["COMBINER"] != ""
}

// Tune runs the cost-based optimizer over a (matched or stored) profile
// for the given input size. Combiner presence is derived from the
// profile itself — callers no longer pass it.
func (s *System) Tune(ctx context.Context, prof *profile.Profile, inputBytes int64, opt TuneOptions) (*cbo.Recommendation, error) {
	return s.tune(ctx, prof, inputBytes, ProfileHasCombiner(prof), opt)
}

// tune is the shared optimizer entry: every tuning path (Tune, Submit)
// funnels through it so options, cancellation, the shared evaluator,
// and the obs instrumentation are applied uniformly.
func (s *System) tune(ctx context.Context, prof *profile.Profile, inputBytes int64, hasCombiner bool, opt TuneOptions) (*cbo.Recommendation, error) {
	copts := s.CBO
	if opt.Budget > 0 {
		copts.MaxEvaluations = opt.Budget
	}
	if opt.Seed != 0 {
		copts.Seed = opt.Seed
	}
	if copts.Evaluator == nil {
		copts.Evaluator = s.Evaluator
	}
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	var start time.Time
	if s.Now != nil {
		start = s.Now()
	}
	rec, err := cbo.Optimize(ctx, prof, inputBytes, s.Cluster, hasCombiner, copts)
	if err != nil {
		return nil, err
	}
	if s.Obs != nil {
		s.Obs.Counter("tune_evaluations_total").Add(int64(rec.Evaluations))
		s.Obs.Histogram("tune_evaluations_per_tune", []float64{1, 50, 100, 200, 400, 800}).Observe(float64(rec.Evaluations))
		if s.Now != nil {
			s.Obs.Histogram("tune_latency_ms", nil).Observe(float64(s.Now().Sub(start)) / float64(time.Millisecond))
		}
	}
	return rec, nil
}

// DefaultConfig is the configuration a job runs with when no tuning is
// applied: Table 2.1 defaults, with the job's own combiner honoured
// (the combiner is set in job code, not cluster configuration).
func DefaultConfig(spec *mrjob.Spec) conf.Config {
	c := conf.Default()
	c.UseCombiner = spec.HasCombiner()
	return c
}

// SubmitResult describes what happened to a submission.
type SubmitResult struct {
	// JobID is the executed run's ID.
	JobID string
	// Tuned reports whether a matching profile was found and the job ran
	// with CBO-recommended settings.
	Tuned bool
	// Match is the matcher's verdict (always set).
	Match *matcher.Result
	// Config is the configuration the job executed with.
	Config conf.Config
	// RuntimeMs is the job's (simulated) runtime.
	RuntimeMs float64
	// SampleCostMs is the simulated cost of the 1-task sample collection.
	SampleCostMs float64
	// ProfileStored reports whether a new full profile was collected and
	// stored (the no-match path).
	ProfileStored bool
	// StoredProfileID is the ID of the stored profile, if any.
	StoredProfileID string
	// PredictedMs is the CBO's predicted runtime for the chosen config
	// (tuned path only).
	PredictedMs float64
	// OutputBytes estimates the job's total output size (reduce output
	// across all reducers) — the input size of a downstream stage in a
	// workflow (§7.2.5).
	OutputBytes int64
	// Degraded reports that the submission completed on a partially
	// available store: the matcher fell back to stage-1-only matching,
	// or the collected profile could not be stored. The job still ran
	// with the best profile (or default config) available.
	Degraded bool
}

// Submit runs the full PStorM workflow for one job submission. The
// context bounds the whole trip — every store read the matcher makes,
// the profile load, the optimizer search, and the profile write on the
// no-match path — and opt tunes the optimizer leg. Ctx-less callers go
// through the root package's convenience wrappers, which root the
// context at the top layer.
func (s *System) Submit(ctx context.Context, spec *mrjob.Spec, ds *data.Dataset, opt TuneOptions) (*SubmitResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	defCfg := DefaultConfig(spec)

	// 1. Collect the 1-task sample profile (map task + reducers over its
	// output), with profiling on.
	k := s.SampleTasks
	if k < 1 {
		k = 1
	}
	sample, sampleCost, err := s.Engine.CollectSample(spec, ds, defCfg, k)
	if err != nil {
		return nil, fmt.Errorf("core: sampling %s: %w", spec.Name, err)
	}
	// The sample probes the store for the submitted input's size, so
	// tie-breaking compares against the full dataset, not the sample.
	sample.InputBytes = ds.NominalBytes

	// 2. Probe the profile store.
	match, err := s.Matcher.Match(ctx, s.Store, sample)
	if err != nil {
		return nil, fmt.Errorf("core: matching %s: %w", spec.Name, err)
	}

	res := &SubmitResult{Match: match, SampleCostMs: sampleCost, Degraded: match.Degraded}

	if match.Matched() {
		// 3a. Tune with the CBO and run with profiling off. The submitted
		// spec knows its own combiner, so it is authoritative over the
		// matched profile's static features.
		rec, err := s.tune(ctx, match.Profile, ds.NominalBytes, spec.HasCombiner(), opt)
		if err != nil {
			return nil, fmt.Errorf("core: optimizing %s: %w", spec.Name, err)
		}
		run, err := s.Engine.Run(spec, ds, rec.Config, engine.RunOptions{})
		if err != nil {
			return nil, err
		}
		res.JobID = run.JobID
		res.Tuned = true
		res.Config = rec.Config
		res.RuntimeMs = run.RuntimeMs
		res.PredictedMs = rec.PredictedMs
		res.OutputBytes = int64(run.ReduceModel.OutBytes * float64(rec.Config.ReduceTasks))
		return res, nil
	}

	// 3b. No match: run with the submitted (default) configuration,
	// profiler on, and store the collected profile.
	run, err := s.Engine.Run(spec, ds, defCfg, engine.RunOptions{Profiling: true})
	if err != nil {
		return nil, err
	}
	if err := s.Store.PutProfile(ctx, run.Profile); err != nil {
		// The job already ran; a store outage must not retroactively turn
		// the submission into a failure. The collected profile is lost
		// (future submissions of this job re-collect it) and the result
		// is tagged degraded.
		res.Degraded = true
	} else {
		res.ProfileStored = true
		res.StoredProfileID = run.Profile.JobID
	}
	res.JobID = run.JobID
	res.Config = defCfg
	res.RuntimeMs = run.RuntimeMs
	res.OutputBytes = int64(run.ReduceModel.OutBytes * float64(defCfg.ReduceTasks))
	return res, nil
}

// CollectAndStore executes the job with profiling on (default config)
// and stores the profile — the bootstrap path used to seed the store
// for experiments.
func (s *System) CollectAndStore(ctx context.Context, spec *mrjob.Spec, ds *data.Dataset) (*profile.Profile, error) {
	run, err := s.Engine.Run(spec, ds, DefaultConfig(spec), engine.RunOptions{Profiling: true})
	if err != nil {
		return nil, err
	}
	if err := s.Store.PutProfile(ctx, run.Profile); err != nil {
		return nil, err
	}
	return run.Profile, nil
}
