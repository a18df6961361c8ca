package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/mrjob"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
	"pstorm/internal/workloads"
)

// bankEntry is one Table 6.1 job on one of its datasets, with the
// complete profile a profiled default-configuration run collects and
// the 1-task sample a submission of it would probe the store with.
type bankEntry struct {
	spec    *mrjob.Spec
	ds      *data.Dataset
	profile *profile.Profile
	sample  *profile.Profile
}

// lightDatasets are the corpora whose jobs interpret in a few
// milliseconds; a scaled-down run (the smoke test) keeps to them.
var lightDatasets = map[string]bool{"pigmix-1g": true, "tera-1g": true, "tpch-1g": true}

// collectBank runs the whole Table 6.1 benchmark once on an engine
// with the given seed: 36 profiled runs and, when wanted, 36 1-task
// samples. It is the dominant part of match-scale's and
// serve-open's set-up time. A scaled-down run collects only the ten
// jobs on the light datasets.
func collectBank(c *runConfig, engineSeed int64, samples bool) ([]bankEntry, error) {
	eng := engine.New(cluster.Default16(), engineSeed)
	var bank []bankEntry
	for _, e := range workloads.Benchmark() {
		for _, dn := range e.DatasetNames {
			if c.scale < 1 && !lightDatasets[dn] {
				continue
			}
			ds, err := workloads.DatasetByName(dn)
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig(e.Spec)
			run, err := eng.Run(e.Spec, ds, cfg, engine.RunOptions{Profiling: true})
			if err != nil {
				return nil, fmt.Errorf("profiling %s on %s: %w", e.Spec.Name, dn, err)
			}
			be := bankEntry{spec: e.Spec, ds: ds, profile: run.Profile}
			if samples {
				s, _, err := eng.CollectSample(e.Spec, ds, cfg, 1)
				if err != nil {
					return nil, fmt.Errorf("sampling %s on %s: %w", e.Spec.Name, dn, err)
				}
				s.InputBytes = ds.NominalBytes
				be.sample = s
			}
			bank = append(bank, be)
		}
	}
	return bank, nil
}

// featureMaps are the four numeric feature families of a profile, in
// the order perturb and featureRanges walk them.
func featureMaps(p *profile.Profile) [4]map[string]float64 {
	return [4]map[string]float64{p.Map.DataFlow, p.Reduce.DataFlow, p.Map.CostFactors, p.Reduce.CostFactors}
}

// featureRanges are the smallest and largest value of every feature
// over a set of profiles.
type featureRanges [4]map[string][2]float64

func rangesOf(bank []bankEntry) *featureRanges {
	var r featureRanges
	for i := range r {
		r[i] = map[string][2]float64{}
	}
	for _, b := range bank {
		for i, m := range featureMaps(b.profile) {
			for k, v := range m {
				lim, seen := r[i][k]
				if !seen {
					lim = [2]float64{v, v}
				}
				r[i][k] = [2]float64{min(lim[0], v), max(lim[1], v)}
			}
		}
	}
	return &r
}

// perturb clones p under a new job id with every dynamic feature and
// cost factor moved by the share `by` (0.05-0.30), up or down as the
// seeded stream decides: a profile of the same code on slightly
// different data and hardware, which is what a store that grows with
// every submission fills up with.
//
// The size of the move is the caller's, and with within set a move that
// would leave the feature's range turns the other way. Both keep the
// matcher's work independent of the seed: its first stage normalizes
// by the store-wide range of each feature, so one copy pushed past the
// largest value rescales every distance in the store, and whole
// families of profiles pass or fail together — per-match work differed
// by a fifth between seeds before.
func perturb(p *profile.Profile, rng *rand.Rand, id string, by float64, within *featureRanges) *profile.Profile {
	c := p.Clone()
	c.JobID = id
	for i, m := range featureMaps(c) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys) // map order must not reach the seeded stream
		for _, k := range keys {
			move := by
			if rng.Intn(2) == 0 {
				move = -by
			}
			if within != nil {
				if lim := within[i][k]; m[k]*(1+move) < lim[0] || m[k]*(1+move) > lim[1] {
					move = -move
				}
			}
			m[k] *= 1 + move
		}
	}
	return c
}

// rowCapture is a core.KV that keeps the rows PutProfile writes and
// nothing else: it turns a profile into the exact seven Table 5.1 rows
// the program would store, without the benchmark restating the schema.
type rowCapture struct{ rows []hstore.Row }

func (c *rowCapture) CreateTable(context.Context, string) error { return nil }
func (c *rowCapture) Put(context.Context, string, string, string, []byte) error {
	return nil // bounds maintenance: not part of a profile's own rows
}
func (c *rowCapture) PutRow(_ context.Context, _ string, r hstore.Row) error {
	c.rows = append(c.rows, r)
	return nil
}
func (c *rowCapture) Get(context.Context, string, string) (hstore.Row, bool, error) {
	return hstore.Row{}, false, nil
}
func (c *rowCapture) Scan(context.Context, string, string, string, hstore.Filter, int) ([]hstore.Row, error) {
	return nil, nil
}
func (c *rowCapture) DeleteRow(context.Context, string, string) error { return nil }

// profileRows returns the rows PutProfile stores for p in the given
// tenant namespace.
func profileRows(ctx context.Context, p *profile.Profile, tenant string) ([]hstore.Row, error) {
	cap := &rowCapture{}
	st, err := core.NewTenantStore(ctx, cap, tenant)
	if err != nil {
		return nil, err
	}
	if err := st.PutProfile(ctx, p); err != nil {
		return nil, err
	}
	return cap.rows, nil
}

func rowsEqual(a, b hstore.Row) bool {
	if a.Key != b.Key || len(a.Columns) != len(b.Columns) {
		return false
	}
	for c, v := range a.Columns {
		if w, ok := b.Columns[c]; !ok || string(v) != string(w) {
			return false
		}
	}
	return true
}

func userBytes(rows []hstore.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.Bytes()
	}
	return n
}

// obsDiff is the change between two obs snapshots. Metric identities
// carry their labels ("name{server=\"rs-0\"}"); every accessor sums
// over all label sets of a name.
type obsDiff struct{ before, after obs.Snapshot }

func sameMetric(identity, name string) bool {
	return identity == name || strings.HasPrefix(identity, name+"{")
}

func (d obsDiff) counter(name string) float64 {
	var n int64
	for id, v := range d.after.Counters {
		if sameMetric(id, name) {
			n += v - d.before.Counters[id]
		}
	}
	return float64(n)
}

// hist returns the observation count and sum added to a histogram.
func (d obsDiff) hist(name string) (count, sum float64) {
	for id, h := range d.after.Histograms {
		if sameMetric(id, name) {
			prev := d.before.Histograms[id]
			count += float64(h.Count - prev.Count)
			sum += h.Sum - prev.Sum
		}
	}
	return count, sum
}

func (d obsDiff) histMean(name string) float64 {
	count, sum := d.hist(name)
	if count == 0 {
		return 0
	}
	return sum / count
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// storeLayerMetrics fills the dstore.* and hstore.* metrics that come
// from the program's own obs counters, for a window in which the
// routing clients completed the snapshot's dstore_client_ops_total.
func storeLayerMetrics(l map[string]float64, d obsDiff) {
	ops := d.counter("dstore_client_ops_total")
	l["dstore.retries_per_op"] = ratio(d.counter("dstore_client_retries_total"), ops)
	l["dstore.meta_refresh_per_op"] = ratio(d.counter("dstore_client_meta_refresh_total"), ops)
	l["dstore.hedges_per_op"] = ratio(d.counter("hedged_reads_total")+d.counter("hedged_scans_total"), ops)
	l["dstore.scan_fanout"] = d.histMean("scan_parallel_fanout")

	puts, putMs := d.hist("dstore_rs_put_latency_ms")
	_, replMs := d.hist("dstore_rs_replication_latency_ms")
	l["dstore.rs_put_ms"] = ratio(putMs, puts)
	l["dstore.rs_replication_ms"] = d.histMean("dstore_rs_replication_latency_ms")
	l["dstore.replication_share"] = ratio(replMs, putMs)
	l["dstore.applies_per_put"] = ratio(d.counter("dstore_rs_apply_total"), puts)

	l["hstore.flushes"] = d.counter("hstore_flushes_total")
	l["hstore.compactions"] = d.counter("hstore_compactions_total") + d.counter("compaction_tier_merges_total")
	l["hstore.compaction_segments"] = d.histMean("compaction_tier_segments")
	l["hstore.bloom_skip_ratio"] = ratio(d.counter("hstore_bloom_skips_total"), d.counter("hstore_bloom_checks_total"))
	l["hstore.block_compress_ratio"] = d.histMean("sstable_block_compress_ratio")
}
