// Package pstorm is the public API of the PStorM reproduction: a
// profile store and matcher for feedback-based tuning of MapReduce
// jobs (EDBT 2014), together with every substrate the system needs —
// a simulated Hadoop MapReduce engine, a Starfish-style profiler,
// What-If engine and cost-based optimizer, a rule-based optimizer, and
// an HBase-like column store.
//
// The typical flow mirrors Fig 1.2 of the paper:
//
//	sys, _ := pstorm.Open(pstorm.Options{Seed: 42})
//	job := pstorm.WordCount()
//	ds, _ := pstorm.DatasetByName("wiki-35g")
//	res, _ := sys.Submit(job, ds)     // sample -> match -> tune -> run
//	if res.Tuned {
//	    fmt.Println("ran with CBO settings:", res.Config)
//	}
//
// A submission first runs a 1-task sample with profiling on, probes the
// profile store for a matching (possibly composite) profile, and either
// runs tuned by the cost-based optimizer or runs profiled and stores
// the collected profile for future submissions.
package pstorm

import (
	"context"
	"fmt"
	"sync"

	"pstorm/internal/cbo"
	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/core"
	"pstorm/internal/data"
	"pstorm/internal/dstore"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
	"pstorm/internal/mrjob"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
	"pstorm/internal/rbo"
	"pstorm/internal/whatif"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Job is a MapReduce job specification: DSL source plus the
	// framework parts that serve as static features (Table 4.3).
	Job = mrjob.Spec
	// Dataset is a deterministic synthetic input corpus with a nominal
	// size.
	Dataset = data.Dataset
	// Config holds the 14 tunable Hadoop parameters of Table 2.1.
	Config = conf.Config
	// Profile is a Starfish-style execution profile.
	Profile = profile.Profile
	// Cluster describes the simulated execution environment.
	Cluster = cluster.Cluster
	// MatchResult is the matcher's verdict for a submission.
	MatchResult = matcher.Result
	// SubmitResult describes what happened to a submission.
	SubmitResult = core.SubmitResult
	// WorkflowResult aggregates a multi-stage workflow submission.
	WorkflowResult = core.WorkflowResult
	// Metrics is a point-in-time observability snapshot: counters,
	// gauges, histograms, and traced events (see System.Snapshot).
	Metrics = obs.Snapshot
	// TuneOptions bound one tuning request: evaluation budget,
	// wall-clock deadline, and search seed.
	TuneOptions = core.TuneOptions
	// Recommendation is the cost-based optimizer's full verdict.
	Recommendation = cbo.Recommendation
)

// DefaultConfig returns the Table 2.1 defaults with the job's own
// combiner honoured.
func DefaultConfig(job *Job) Config { return core.DefaultConfig(job) }

// DefaultCluster returns the paper's 16-node EC2 c1.medium testbed.
func DefaultCluster() *Cluster { return cluster.Default16() }

// Options configure a System.
type Options struct {
	// Seed drives all simulated randomness; a fixed seed reproduces
	// every run exactly. Zero means seed 1.
	Seed int64
	// Cluster is the execution environment (nil: DefaultCluster).
	Cluster *Cluster
	// StoreServers, when > 0, backs the profile store with an in-process
	// dstore cluster of that many region servers (replication 2, the
	// profile table split across them). Takes precedence over DataDir.
	// Close() shuts the cluster down.
	StoreServers int
	// MasterURL, when set, connects the profile store to a running
	// pstormd master over HTTP; region servers must carry addresses in
	// META (i.e. have joined with -addr). In an HA deployment list every
	// master comma-separated — the client follows NotLeader redirects
	// and fails over transparently. Takes precedence over StoreServers.
	MasterURL string
	// DataDir, when set, makes the in-process profile store durable: the
	// last checkpoint in the directory is reopened, the write-ahead log
	// replayed over it, and every subsequent mutation logged — so stored
	// profiles survive restarts even without an explicit Checkpoint().
	DataDir string
	// CBOSeed seeds the optimizer search (0: derived from Seed).
	CBOSeed int64
	// SampleTasks is the sampler size (0: the paper's 1 task).
	SampleTasks int
}

// System is a running PStorM deployment: engine + profile store +
// matcher + optimizer (Fig 1.2).
type System struct {
	core      *core.System
	engine    *engine.Engine
	store     *core.Store
	server    *hstore.Server       // nil unless backed by one in-process hstore
	cluster   *dstore.LocalCluster // nil unless backed by an in-process dstore cluster
	dclient   *dstore.Client       // nil unless connected to a remote master
	dataDir   string
	closeOnce sync.Once
}

// Open assembles a System.
func Open(opt Options) (*System, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	cl := opt.Cluster
	if cl == nil {
		cl = DefaultCluster()
	}
	eng := engine.New(cl, opt.Seed)
	var client core.KV
	var server *hstore.Server
	var dcluster *dstore.LocalCluster
	var dclient *dstore.Client
	switch {
	case opt.MasterURL != "":
		dclient = dstore.NewClient(dstore.DialMasters(opt.MasterURL, 0), dstore.NewRegistry())
		client = dclient
	case opt.StoreServers > 0:
		var err error
		dcluster, err = dstore.StartLocalCluster(dstore.LocalOptions{
			Servers:    opt.StoreServers,
			Background: true,
		})
		if err != nil {
			return nil, err
		}
		client = dcluster.Client()
	case opt.DataDir != "":
		var err error
		server, err = hstore.OpenDurable(opt.DataDir)
		if err != nil {
			return nil, err
		}
		client = hstore.Connect(server)
	default:
		server = hstore.NewServer()
		client = hstore.Connect(server)
	}
	// The root package is the sanctioned top layer: it roots contexts
	// for callers that don't carry one.
	store, err := core.NewStore(context.Background(), client)
	if err != nil {
		if dcluster != nil {
			dcluster.Close()
		}
		return nil, err
	}
	sys := core.NewSystem(store, eng)
	if opt.CBOSeed != 0 {
		sys.CBO.Seed = opt.CBOSeed
	} else {
		sys.CBO.Seed = opt.Seed
	}
	if opt.SampleTasks > 0 {
		sys.SampleTasks = opt.SampleTasks
	}
	sys.Matcher.Obs = obs.NewRegistry()
	sys.Obs = obs.NewRegistry()
	sys.Evaluator = whatif.NewEvaluator(whatif.EvaluatorOptions{Obs: sys.Obs})
	sys.Obs.GaugeFunc("tune_cache_size", func() float64 { return float64(sys.Evaluator.Len()) })
	return &System{core: sys, engine: eng, store: store, server: server, cluster: dcluster, dclient: dclient, dataDir: opt.DataDir}, nil
}

// Snapshot merges the observability state of every component this
// System owns: engine run counters and simulated-time histograms,
// matcher outcome counters, and — depending on how the profile store is
// backed — the in-process hstore's LSM counters or the whole dstore
// cluster's metrics and event trace. For a MasterURL system only the
// local routing client's metrics are included (the servers export their
// own via pstormd's /metrics).
func (s *System) Snapshot() Metrics {
	snaps := []obs.Snapshot{
		s.engine.Obs().Snapshot(),
		s.core.Matcher.Obs.Snapshot(),
		s.core.Obs.Snapshot(),
	}
	if s.server != nil {
		snaps = append(snaps, s.server.Obs().Snapshot())
	}
	if s.cluster != nil {
		snaps = append(snaps, s.cluster.Snapshot())
	}
	if s.dclient != nil {
		snaps = append(snaps, s.dclient.Obs().Snapshot())
	}
	return obs.Merge(snaps...)
}

// Close releases store resources. It matters for StoreServers systems
// (stops the cluster's master loop and region servers); elsewhere it is
// a no-op. Close is idempotent and safe after servers have already been
// killed (e.g. by a chaos scenario): stopping a stopped server is a
// no-op and the master loop shuts down exactly once.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		if s.cluster != nil {
			s.cluster.Close()
		}
	})
}

// StoreCluster exposes the in-process dstore cluster backing the
// profile store when Options.StoreServers was used (nil otherwise) —
// benchmarks and tests use it to kill servers and move regions.
func (s *System) StoreCluster() *dstore.LocalCluster { return s.cluster }

// Checkpoint folds the profile store into a compact on-disk image in
// Options.DataDir and truncates the write-ahead log. Mutations are
// already durable through the WAL; checkpointing bounds recovery time
// and reclaims log space. It fails for remote stores and when no
// DataDir was given.
func (s *System) Checkpoint() error {
	if s.server == nil {
		return fmt.Errorf("pstorm: Checkpoint needs an in-process store")
	}
	if s.dataDir == "" {
		return fmt.Errorf("pstorm: Checkpoint needs Options.DataDir")
	}
	return s.server.SaveTo(s.dataDir)
}

// Submit runs the full PStorM workflow for one job submission: 1-task
// sample, store probe, then either a CBO-tuned run (profiling off) or a
// profiled run whose profile is stored. It is the ctx-less convenience
// over SubmitWith, rooting the context at this top layer.
func (s *System) Submit(job *Job, ds *Dataset) (*SubmitResult, error) {
	return s.core.Submit(context.Background(), job, ds, TuneOptions{})
}

// SubmitWorkflow runs a chain of jobs (§7.2.5): each stage goes through
// the full sample/match/tune loop and its output feeds the next stage
// as a derived dataset.
func (s *System) SubmitWorkflow(stages []*Job, input *Dataset) (*WorkflowResult, error) {
	return s.core.SubmitWorkflow(context.Background(), stages, input)
}

// SubmitWorkflowContext is SubmitWorkflow under a caller-owned context
// bounding the whole chain.
func (s *System) SubmitWorkflowContext(ctx context.Context, stages []*Job, input *Dataset) (*WorkflowResult, error) {
	return s.core.SubmitWorkflow(ctx, stages, input)
}

// CollectAndStore runs the job with profiling on and stores the full
// profile, seeding the store.
func (s *System) CollectAndStore(job *Job, ds *Dataset) (*Profile, error) {
	return s.core.CollectAndStore(context.Background(), job, ds)
}

// Run executes the job with an explicit configuration (no tuning, no
// profiling) and returns the simulated runtime in milliseconds.
func (s *System) Run(job *Job, ds *Dataset, cfg Config) (float64, error) {
	res, err := s.engine.Run(job, ds, cfg, engine.RunOptions{})
	if err != nil {
		return 0, err
	}
	return res.RuntimeMs, nil
}

// Match probes the profile store with a fresh 1-task sample of the job
// without executing it, returning the matcher's verdict.
func (s *System) Match(job *Job, ds *Dataset) (*MatchResult, error) {
	sample, _, err := s.engine.CollectSample(job, ds, DefaultConfig(job), 1)
	if err != nil {
		return nil, err
	}
	sample.InputBytes = ds.NominalBytes
	return s.core.Matcher.Match(context.Background(), s.store, sample)
}

// TuneProfile runs the cost-based optimizer over a profile for the
// dataset's nominal size. The search runs through the system's shared
// What-If evaluator: opt bounds its evaluation budget and deadline and
// may override its seed, and ctx cancels it.
func (s *System) TuneProfile(ctx context.Context, prof *Profile, ds *Dataset, opt TuneOptions) (*Recommendation, error) {
	return s.core.Tune(ctx, prof, ds.NominalBytes, opt)
}

// SubmitWith is Submit with cancellation and per-submission tuning
// options: the context bounds the matcher's store reads, the optimizer
// search, and the profile write on the no-match path.
func (s *System) SubmitWith(ctx context.Context, job *Job, ds *Dataset, opt TuneOptions) (*SubmitResult, error) {
	return s.core.Submit(ctx, job, ds, opt)
}

// TuneRuleBased returns the Appendix B rule-based recommendation.
func (s *System) TuneRuleBased(job *Job, ds *Dataset) (Config, error) {
	st, err := engine.Measure(job, ds, []int{0}, 0)
	if err != nil {
		return Config{}, err
	}
	return rbo.Recommend(rbo.JobHints{
		MapSizeSel:          st.MapSizeSel,
		MapOutRecWidth:      st.MapOutRecWidth,
		HasCombiner:         job.HasCombiner(),
		CombinerAssociative: job.CombinerAssociative,
	}, rbo.ClusterHints{ReduceSlots: s.engine.Cluster.ReduceSlots()}), nil
}

// WhatIf predicts the job runtime for a profile, input size, and
// configuration using the What-If engine.
func (s *System) WhatIf(prof *Profile, inputBytes int64, cfg Config) (float64, error) {
	return whatif.PredictRuntime(prof, inputBytes, s.engine.Cluster, cfg)
}

// StoredProfiles lists the job IDs in the profile store.
func (s *System) StoredProfiles() ([]string, error) { return s.store.JobIDs(context.Background()) }

// LoadProfile fetches a stored profile by job ID.
func (s *System) LoadProfile(jobID string) (*Profile, error) {
	return s.store.LoadProfile(context.Background(), jobID)
}

// Store exposes the underlying profile store for advanced use.
func (s *System) Store() *core.Store { return s.store }

// Engine exposes the execution engine for advanced use.
func (s *System) Engine() *engine.Engine { return s.engine }

// Describe renders a short human summary of a submission result.
func Describe(r *SubmitResult) string {
	if r == nil {
		return "<nil>"
	}
	if r.Tuned {
		kind := "whole"
		if r.Match.Composite {
			kind = "composite"
		}
		return fmt.Sprintf("tuned via %s profile (map %s, reduce %s); ran in %.1f min",
			kind, r.Match.MapJobID, r.Match.ReduceJobID, r.RuntimeMs/60000)
	}
	return fmt.Sprintf("no matching profile; ran profiled in %.1f min and stored %s",
		r.RuntimeMs/60000, r.StoredProfileID)
}
