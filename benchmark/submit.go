package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"

	"pstorm"
	"pstorm/internal/cbo"
	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/core"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/mrjob"
	"pstorm/internal/obs"
	"pstorm/internal/whatif"
	"pstorm/internal/workloads"
)

// submit-loop: the Fig 1.2 loop as a Hadoop user meets it. One client
// submits Table 6.1 jobs to a System on a durable in-process hstore
// (WAL on, no fsync per record — pstorm.Open's policy, stated here
// because it decides what PutProfile costs). The first submission of a
// job that matches nothing runs profiled and stores its profile; every
// later one matches, is tuned by the CBO and runs tuned.

// submitPopularity ranks the job x dataset pairs from most to least
// often submitted; pair k is submitted with weight 1/k^1.2. Short
// reporting queries lead and heavy mining jobs trail, as on a shared
// cluster. The four text jobs on the 35 GB Wikipedia corpus are left
// out: one Submit of them interprets for 0.5-1.8 s, and a handful would
// take most of a 15 s window and leave too few samples for a p95.
var submitPopularity = [][2]string{
	{"pigmix-l1", "pigmix-1g"}, {"pigmix-l2", "pigmix-1g"}, {"pigmix-l3", "pigmix-1g"}, {"pigmix-l4", "pigmix-1g"},
	{"pigmix-l5", "pigmix-1g"}, {"pigmix-l6", "pigmix-1g"}, {"pigmix-l7", "pigmix-1g"}, {"pigmix-l8", "pigmix-1g"},
	{"sort", "tera-1g"}, {"join", "tpch-1g"},
	{"pigmix-l1", "pigmix-35g"}, {"pigmix-l2", "pigmix-35g"}, {"pigmix-l3", "pigmix-35g"}, {"pigmix-l4", "pigmix-35g"},
	{"pigmix-l5", "pigmix-35g"}, {"pigmix-l6", "pigmix-35g"}, {"pigmix-l7", "pigmix-35g"}, {"pigmix-l8", "pigmix-35g"},
	{"sort", "tera-35g"}, {"join", "tpch-35g"}, {"itemcf", "ratings-1m"},
	{"inverted-index", "randomtext-1g"}, {"wordcount", "randomtext-1g"}, {"cloudburst", "genome-sample"},
	{"fim-pass1", "webdocs-1.5g"}, {"itemcf", "ratings-10m"}, {"cloudburst", "genome-lakewash"},
	{"bigram-relfreq", "randomtext-1g"}, {"cooccurrence-pairs", "randomtext-1g"}, {"cooccurrence-stripes", "randomtext-1g"},
	{"fim-pass2", "webdocs-1.5g"}, {"fim-pass3", "webdocs-1.5g"},
}

const (
	submitZipf = 1.2
	// submitCountOps is the prefix of the submission sequence over which
	// the tuned/stored counts are reported: a fixed number of operations,
	// so the counts repeat exactly for a seed whatever the window's length.
	submitCountOps = 150
	submitWarmUp   = 12 // pairs submitted once, elsewhere, during set-up
)

type submitPair struct {
	spec *mrjob.Spec
	ds   *data.Dataset
}

func (p submitPair) String() string { return p.spec.Name + "|" + p.ds.Name }

var submitLoop = workload{
	spec: workloadSpecs[0],
	prepare: func(*runConfig) (any, error) {
		pairs := make([]submitPair, len(submitPopularity))
		for i, jd := range submitPopularity {
			spec, err := workloads.JobByName(jd[0])
			if err != nil {
				return nil, err
			}
			ds, err := workloads.DatasetByName(jd[1])
			if err != nil {
				return nil, err
			}
			pairs[i] = submitPair{spec, ds}
		}
		return pairs, nil
	},
	setup: func(c *runConfig, prep any, tr *tracer) (env, error) {
		dir, err := os.MkdirTemp(c.tmpDir, "submit-")
		if err != nil {
			return nil, err
		}
		e := &submitEnv{c: c, pairs: prep.([]submitPair), dir: dir, tr: tr}
		if err := e.warmUp(); err != nil {
			return nil, err
		}
		if tr == nil {
			e.sys, err = pstorm.Open(pstorm.Options{Seed: c.seed, DataDir: dir})
			return e, err
		}
		// The traced pass assembles the same System pstorm.Open does, so
		// that it can sit decorators on the seams Open keeps to itself.
		server, err := hstore.OpenDurable(dir)
		if err != nil {
			return nil, err
		}
		e.kv = &traceKV{kv: hstore.Connect(server), tr: tr, layer: layerHStore}
		store, err := core.NewStore(context.Background(), e.kv)
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(store, engine.New(cluster.Default16(), c.seed))
		sys.CBO.Seed = c.seed
		sys.Matcher.Obs = obs.NewRegistry()
		sys.Obs = obs.NewRegistry()
		sys.Evaluator = whatif.NewEvaluator(whatif.EvaluatorOptions{Obs: sys.Obs})
		e.core = sys
		e.mstore = &traceMatchStore{st: store, tr: tr}
		return e, nil
	},
}

type submitEnv struct {
	c     *runConfig
	pairs []submitPair
	dir   string
	tr    *tracer

	sys *pstorm.System // untraced

	core   *core.System // traced
	kv     *traceKV
	mstore *traceMatchStore

	putProfiles, putProfileKVCalls int64
	tunes, evals                   int
}

// warmUp submits the most popular pairs once to a throwaway System, so
// that job sources are parsed and datasets generated before the measured
// store sees its first submission — the measured store itself must
// start empty.
func (e *submitEnv) warmUp() error {
	dir, err := os.MkdirTemp(e.c.tmpDir, "warmup-")
	if err != nil {
		return err
	}
	sys, err := pstorm.Open(pstorm.Options{Seed: e.c.seed, DataDir: dir})
	if err != nil {
		return err
	}
	defer sys.Close()
	for _, p := range e.pairs[:e.c.scaled(submitWarmUp)] {
		if _, err := sys.Submit(p.spec, p.ds); err != nil {
			return fmt.Errorf("warm-up submit %s: %w", p, err)
		}
	}
	return nil
}

func (e *submitEnv) close() {
	if e.sys != nil {
		e.sys.Close()
	}
}

// submit is one submission: the public call on the untraced pass, the
// same five steps with a span around each on the traced one.
func (e *submitEnv) submit(ctx context.Context, p submitPair) (*core.SubmitResult, error) {
	if e.tr == nil {
		return e.sys.Submit(p.spec, p.ds)
	}
	return e.tracedSubmit(ctx, p)
}

// tracedSubmit re-enacts core.System.Submit through the System's public
// fields. It must stay step for step what Submit does — measure checks
// that it decides and configures exactly as the untraced pass did.
func (e *submitEnv) tracedSubmit(ctx context.Context, p submitPair) (*core.SubmitResult, error) {
	s, spec, ds := e.core, p.spec, p.ds
	ctx, root := e.tr.root(ctx, layerCore, "submit")
	defer root.end()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	defCfg := core.DefaultConfig(spec)

	_, sp := e.tr.begin(ctx, layerEngine, "sample", "", "")
	sample, sampleCost, err := s.Engine.CollectSample(spec, ds, defCfg, max(s.SampleTasks, 1))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("sampling %s: %w", spec.Name, err)
	}
	sample.InputBytes = ds.NominalBytes

	mctx, sp := e.tr.begin(ctx, layerMatcher, "match", "", "")
	match, err := s.Matcher.Match(mctx, e.mstore, sample)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("matching %s: %w", spec.Name, err)
	}
	res := &core.SubmitResult{Match: match, SampleCostMs: sampleCost, Degraded: match.Degraded}

	if match.Matched() {
		// Submit's optimizer leg: the submitted spec's own combiner, the
		// System's search options and shared evaluator.
		copts := s.CBO
		copts.Evaluator = s.Evaluator
		_, sp := e.tr.begin(ctx, layerCBO, "optimize", "", "")
		rec, err := cbo.Optimize(ctx, match.Profile, ds.NominalBytes, s.Cluster, spec.HasCombiner(), copts)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("optimizing %s: %w", spec.Name, err)
		}
		e.tunes++
		e.evals += rec.Evaluations
		_, sp = e.tr.begin(ctx, layerEngine, "run", "", "")
		run, err := s.Engine.Run(spec, ds, rec.Config, engine.RunOptions{})
		sp.end()
		if err != nil {
			return nil, err
		}
		res.JobID, res.Tuned, res.Config = run.JobID, true, rec.Config
		res.RuntimeMs, res.PredictedMs = run.RuntimeMs, rec.PredictedMs
		return res, nil
	}

	_, sp = e.tr.begin(ctx, layerEngine, "run", "", "")
	run, err := s.Engine.Run(spec, ds, defCfg, engine.RunOptions{Profiling: true})
	sp.end()
	if err != nil {
		return nil, err
	}
	pctx, sp := e.tr.begin(ctx, layerCore, "put_profile", "", "")
	before := e.kv.calls.Load()
	err = s.Store.PutProfile(pctx, run.Profile)
	e.putProfiles++
	e.putProfileKVCalls += e.kv.calls.Load() - before
	sp.end()
	if err != nil {
		res.Degraded = true
	} else {
		res.ProfileStored, res.StoredProfileID = true, run.Profile.JobID
	}
	res.JobID, res.Config, res.RuntimeMs = run.JobID, defCfg, run.RuntimeMs
	return res, nil
}

func (e *submitEnv) measure(w window) *measured {
	ctx := context.Background()
	m := newMeasured()
	order := newSmoothRR(zipfWeights(len(e.pairs), submitZipf))

	storedID := map[string]string{}      // pair -> id of the profile its first sighting stored
	firstCfg := map[string]conf.Config{} // pair|donors -> first tuned configuration
	ownCfg := map[string]conf.Config{}   // pair -> configuration tuned from its own stored profile
	var lat []float64
	tuned, stored, repeats, own := 0, 0, 0, 0
	decisions := fnv.New64a()
	var snap0 obs.Snapshot
	if e.tr != nil {
		e.tr.on.Store(true)
		snap0 = e.core.Obs.Snapshot()
	}

	mem0 := sampleProc().totalAlloc
	start := now()
	for i := 0; w.open(i); i++ {
		p := e.pairs[order.next()]
		m.attempted++
		t := now()
		res, err := e.submit(ctx, p)
		ms := sinceMs(t)
		if err != nil {
			m.fail("submit %s: %v", p, err)
			continue
		}
		key := p.String()
		switch {
		case res.Degraded, !res.Tuned && !res.ProfileStored:
			m.fail("submit %s: neither tuned nor stored (degraded=%v)", p, res.Degraded)
			continue
		case res.ProfileStored && storedID[key] != "":
			m.fail("submit %s: stored %s although %s was stored before", p, res.StoredProfileID, storedID[key])
			continue
		case res.ProfileStored:
			storedID[key] = res.StoredProfileID
		case storedID[key] != "" && !res.Tuned:
			m.fail("submit %s: repeat of a stored job found no match although %s is stored", p, storedID[key])
			continue
		}
		if id := storedID[key]; id != "" && res.Tuned {
			// Usually both donors are the job's own profile; now and then
			// the matcher composes one side from a sibling job with the
			// same CFG whose sample sat closer (the paper's composite
			// match), which is a right answer too. The share is reported.
			repeats++
			own += btoi(res.Match.MapJobID == id && res.Match.ReduceJobID == id)
		}
		if res.Tuned {
			ck := key + "|" + res.Match.MapJobID + "|" + res.Match.ReduceJobID
			if first, seen := firstCfg[ck]; !seen {
				firstCfg[ck] = res.Config
			} else if first != res.Config {
				m.fail("submit %s: tuned configuration changed between repeats on the same donors", p)
				continue
			}
			if id := storedID[key]; id != "" && res.Match.MapJobID == id && res.Match.ReduceJobID == id {
				ownCfg[key] = res.Config
			}
		}
		lat = append(lat, ms)
		if i < submitCountOps {
			tuned += btoi(res.Tuned)
			stored += btoi(res.ProfileStored)
			fmt.Fprintf(decisions, "%s %v %s %s %s %v\n", key, res.Tuned, res.StoredProfileID, res.Match.MapJobID, res.Match.ReduceJobID, res.Config)
			if i == submitCountOps-1 {
				// The traced pass re-enacts Submit; it must have decided and
				// configured exactly as the public call did.
				m.agree["submit decisions"] = fmt.Sprintf("%x", decisions.Sum64())
			}
		}
	}
	elapsed := now().Sub(start)
	m.primary(lat, elapsed, sampleProc().totalAlloc-mem0)
	m.layer["submit.tuned"] = float64(tuned)
	m.layer["submit.stored"] = float64(stored)
	m.layer["submit.own_match_share"] = ratio(float64(own), float64(repeats))

	e.verify(ctx, m, storedID, ownCfg)
	if e.tr != nil {
		e.layerMetrics(m, snap0)
	}
	return m
}

// verify runs the checks that need the finished store: each tuned
// configuration equals a fresh optimizer run on the stored profile at
// the same seed, and a second Open of the data directory finds every
// stored profile.
func (e *submitEnv) verify(ctx context.Context, m *measured, storedID map[string]string, ownCfg map[string]conf.Config) {
	reopened, err := pstorm.Open(pstorm.Options{Seed: e.c.seed, DataDir: e.dir})
	if err != nil {
		m.fail("reopening %s: %v", e.dir, err)
		return
	}
	defer reopened.Close()
	ids, err := reopened.StoredProfiles()
	if err != nil {
		m.fail("listing stored profiles after reopen: %v", err)
		return
	}
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, p := range e.pairs {
		id := storedID[p.String()]
		if id == "" {
			continue
		}
		if !have[id] {
			m.fail("profile %s stored by %s is missing after reopen", id, p)
			continue
		}
		cfg, tunedOwn := ownCfg[p.String()]
		if !tunedOwn {
			continue
		}
		prof, err := reopened.LoadProfile(id)
		if err != nil {
			m.fail("loading %s after reopen: %v", id, err)
			continue
		}
		rec, err := cbo.Optimize(ctx, prof, p.ds.NominalBytes, cluster.Default16(), p.spec.HasCombiner(), cbo.Options{Seed: e.c.seed})
		if err != nil {
			m.fail("reference optimize of %s: %v", id, err)
		} else if rec.Config != cfg {
			m.fail("submit %s ran with %v, a fresh optimize of %s gives %v", p, cfg, id, rec.Config)
		}
	}
	if len(ids) != len(storedID) {
		m.fail("store holds %d profiles after reopen, the run stored %d", len(ids), len(storedID))
	}
}

func (e *submitEnv) layerMetrics(m *measured, snap0 obs.Snapshot) {
	spans := e.tr.finish()
	lt := attribute(spans, nil)
	l := m.layer
	l["engine.sample_ms"] = meanSpanMs(spans, layerEngine, "sample")
	l["engine.run_ms"] = meanSpanMs(spans, layerEngine, "run")
	l["engine.share"] = lt.share(layerEngine)
	l["matcher.match_ms"] = meanSpanMs(spans, layerMatcher, "match")
	l["matcher.self_ms"] = lt.perRequestMs(layerMatcher)
	l["matcher.share"] = lt.share(layerMatcher)
	l["cbo.optimize_ms"] = meanSpanMs(spans, layerCBO, "optimize")
	l["cbo.share"] = lt.share(layerCBO)
	if e.tunes > 0 {
		l["cbo.evals_per_tune"] = float64(e.evals) / float64(e.tunes)
	}
	l["core.putprofile_ms"] = meanSpanMs(spans, layerCore, "put_profile")
	l["core.loadprofile_ms"] = meanSpanMs(spans, layerCore, "load_profile")
	if e.putProfiles > 0 {
		l["core.kv_calls_per_putprofile"] = float64(e.putProfileKVCalls) / float64(e.putProfiles)
	}
	l["core.submit_self_ms"] = lt.namedPerRequestMs(layerCore + "/submit")
	l["core.share"] = lt.share(layerCore)
	l["hstore.share"] = lt.share(layerHStore)
	l["trace.primary_op_ms"] = lt.meanRequestMs()

	snap := e.core.Obs.Snapshot()
	hits := snap.Counters["tune_cache_hits_total"] - snap0.Counters["tune_cache_hits_total"]
	misses := snap.Counters["tune_cache_misses_total"] - snap0.Counters["tune_cache_misses_total"]
	if hits+misses > 0 {
		l["whatif.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}
