package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/matcher"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
)

// match-scale: the store-scalability question. The matcher's latency is
// paid on every submission and grows with the store, so this workload
// probes a store of about 1 500 profiles — the 36-profile bank plus
// seeded perturbations of it under distinct job ids — held by a
// 3-server, replication-2 in-process dstore cluster and flushed to
// sstables. One client calls Matcher.Match with the bank's 1-task
// samples in bank order, round and round. The engine and the optimizer
// do nothing here.

const (
	matchVariants = 42 // copies of the bank in the store, the original included
	// matchBankSeed seeds the engine that collects the bank and the probe
	// samples. It is a constant: which splits the engine measures decides
	// the bank's feature ranges, and with them whether whole families of
	// profiles pass the matcher's first stage — per-match work differed by
	// a fifth between run seeds when the bank followed them. The run's
	// seed drives how the store grows around the bank instead.
	matchBankSeed = 1
	// matchAccuracyFloor fails the run when fewer probes than this find a
	// donor of their own job: the paper's matcher is not always right,
	// but one that is mostly wrong is broken.
	matchAccuracyFloor = 0.5
)

type matchPrep struct {
	bank     []bankEntry
	profiles []*profile.Profile // what set-up stores, in store order
}

var matchScale = workload{
	spec: workloadSpecs[1],
	prepare: func(c *runConfig) (any, error) {
		bank, err := collectBank(c, matchBankSeed, true)
		if err != nil {
			return nil, err
		}
		p := &matchPrep{bank: bank}
		rng := rand.New(rand.NewSource(c.seed))
		ranges := rangesOf(bank)
		variants := c.scaled(matchVariants)
		for v := 0; v < variants; v++ {
			for _, b := range bank {
				if v == 0 {
					p.profiles = append(p.profiles, b.profile)
					continue
				}
				// Copy v sits 5 % (v = 1) to 30 % (the last) from the original.
				by := 0.05 + 0.25*float64(v-1)/float64(max(variants-2, 1))
				p.profiles = append(p.profiles, perturb(b.profile, rng, fmt.Sprintf("%s~v%03d", b.profile.JobID, v), by, ranges))
			}
		}
		return p, nil
	},
	setup: func(c *runConfig, prep any, tr *tracer) (env, error) {
		ctx := context.Background()
		e := &matchEnv{prep: prep.(*matchPrep), tr: tr, m: matcher.New()}
		opts := dstore.LocalOptions{Servers: 3, Replication: 2}
		if tr != nil {
			opts.WrapConn = wrapConn(tr, layerRS, writeKey)
		}
		var err error
		if e.cluster, err = dstore.StartLocalCluster(opts); err != nil {
			return nil, err
		}
		var kv core.KV = e.cluster.Client()
		if tr != nil {
			e.kv = &traceKV{kv: e.cluster.Client(), tr: tr, layer: layerDClient}
			kv = e.kv
		}
		if e.store, err = core.NewStore(ctx, kv); err != nil {
			e.close()
			return nil, err
		}
		e.mstore = e.store
		if tr != nil {
			e.tstore = &traceMatchStore{st: e.store, tr: tr}
			e.mstore = e.tstore
		}
		for _, p := range e.prep.profiles {
			if err := e.store.PutProfile(ctx, p); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := e.cluster.Client().Flush(core.TableName); err != nil {
			e.close()
			return nil, err
		}
		// Warm-up: one probe loads the client's META and touches every
		// region once.
		if _, err := e.m.Match(ctx, e.store, e.prep.bank[0].sample); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	},
}

type matchEnv struct {
	prep    *matchPrep
	tr      *tracer
	m       *matcher.Matcher
	cluster *dstore.LocalCluster
	store   *core.Store
	mstore  matcher.Store

	kv     *traceKV
	tstore *traceMatchStore
}

func (e *matchEnv) close() { e.cluster.Close() }

// jobOfID recovers the job name from a stored profile id
// ("wordcount-run0013" or "wordcount-run0013~v017").
func jobOfID(id string) string {
	if i := strings.LastIndex(id, "-run"); i >= 0 {
		return id[:i]
	}
	return id
}

func (e *matchEnv) measure(w window) *measured {
	ctx := context.Background()
	m := newMeasured()
	probes := e.prep.bank
	first := make([]string, len(probes)) // each probe's first verdict
	winners := fnv.New64a()
	right := 0
	var lat []float64
	var snap0 obs.Snapshot
	var kv0, keys0 int64
	if e.tr != nil {
		e.tr.on.Store(true)
		snap0 = e.cluster.Snapshot()
		kv0, keys0 = e.kv.calls.Load(), e.tstore.stage2Keys.Load()
		if err := e.cluster.Client().ResetStats(); err != nil {
			m.fail("resetting transfer stats: %v", err)
		}
	}

	mem0 := sampleProc().totalAlloc
	start := now()
	for i := 0; w.open(i); i++ {
		if i == len(probes) {
			e.cycleCounts(m, kv0, keys0)
		}
		b := probes[i%len(probes)]
		m.attempted++
		rctx, root := e.tr.root(ctx, layerMatcher, "match")
		t := now()
		res, err := e.m.Match(rctx, e.mstore, b.sample)
		ms := sinceMs(t)
		root.end()
		if err != nil {
			m.fail("match %s on %s: %v", b.spec.Name, b.ds.Name, err)
			continue
		}
		if res.Degraded {
			m.fail("match %s on %s: degraded", b.spec.Name, b.ds.Name)
			continue
		}
		verdict := res.MapJobID + "," + res.ReduceJobID
		if i < len(probes) {
			first[i] = verdict
			fmt.Fprintln(winners, verdict)
			if res.Matched() && jobOfID(res.MapJobID) == b.spec.Name && jobOfID(res.ReduceJobID) == b.spec.Name {
				right++
			}
		} else if verdict != first[i%len(probes)] {
			// The store does not change while it is probed.
			m.fail("match %s on %s: verdict %s, was %s on the same store", b.spec.Name, b.ds.Name, verdict, first[i%len(probes)])
			continue
		}
		lat = append(lat, ms)
	}
	elapsed := now().Sub(start)
	m.primary(lat, elapsed, sampleProc().totalAlloc-mem0)

	if done := min(m.attempted, len(probes)); done > 0 {
		acc := float64(right) / float64(done)
		m.layer["matcher.match_accuracy"] = acc
		if acc < matchAccuracyFloor {
			m.fail("only %d of %d probes matched a profile of their own job", right, done)
		}
	}
	if m.attempted >= len(probes) {
		m.agree["match winners"] = fmt.Sprintf("%x", winners.Sum64())
	}
	if e.tr != nil {
		if m.attempted <= len(probes) {
			e.cycleCounts(m, kv0, keys0)
		}
		e.layerMetrics(m, snap0)
	}
	return m
}

// cycleCounts reports the exact counts of the probes run so far — one
// full cycle of the probe set, when the window holds one — per match.
func (e *matchEnv) cycleCounts(m *measured, kv0, keys0 int64) {
	if e.tr == nil || m.attempted == 0 {
		return
	}
	n := float64(m.attempted)
	st, err := e.cluster.Client().Stats()
	if err != nil {
		m.fail("reading transfer stats: %v", err)
		return
	}
	m.layer["matcher.rows_scanned_per_match"] = float64(st.RowsScanned) / n
	m.layer["matcher.rows_returned_per_match"] = float64(st.RowsReturned) / n
	m.layer["matcher.stage2_keys_per_match"] = float64(e.tstore.stage2Keys.Load()-keys0) / n
	m.layer["matcher.kv_calls_per_match"] = float64(e.kv.calls.Load()-kv0) / n
}

func (e *matchEnv) layerMetrics(m *measured, snap0 obs.Snapshot) {
	spans := e.tr.finish()
	lt := attribute(spans, nil)
	l := m.layer
	l["matcher.match_ms"] = meanSpanMs(spans, layerMatcher, "match")
	l["matcher.self_ms"] = lt.perRequestMs(layerMatcher)
	l["matcher.share"] = lt.share(layerMatcher)
	l["core.loadprofile_ms"] = meanSpanMs(spans, layerCore, "load_profile")
	l["core.share"] = lt.share(layerCore)
	l["dstore.client_self_us"] = lt.perRequestMs(layerDClient) * 1e3
	l["dstore.client_share"] = lt.share(layerDClient)
	l["dstore.rs_share"] = lt.share(layerRS)
	l["trace.primary_op_ms"] = lt.meanRequestMs()
	if n := lt.spans[layerEngine] + lt.spans[layerCBO]; n > 0 {
		m.fail("match-scale recorded %d engine/cbo spans; it must bypass both", n)
	}
	storeLayerMetrics(l, obsDiff{snap0, e.cluster.Snapshot()})
}
