package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
	"pstorm/internal/profile"
	"pstorm/internal/workloads"
)

func newStore(t *testing.T) *core.Store {
	t.Helper()
	st, err := core.NewStore(context.Background(), hstore.Connect(hstore.NewServer()))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func collectProfile(t *testing.T, eng *engine.Engine, job, dsName string) *profile.Profile {
	t.Helper()
	spec, err := workloads.JobByName(job)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workloads.DatasetByName(dsName)
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Run(spec, ds, core.DefaultConfig(spec), engine.RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	return run.Profile
}

func TestStorePutAndLoadRoundTrip(t *testing.T) {
	st := newStore(t)
	eng := engine.New(cluster.Default16(), 1)
	p := collectProfile(t, eng, "wordcount", "randomtext-1g")
	if err := st.PutProfile(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	back, err := st.LoadProfile(context.Background(), p.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if back.JobName != p.JobName || back.RuntimeMs != p.RuntimeMs ||
		back.Map.DataFlow[profile.MapPairsSel] != p.Map.DataFlow[profile.MapPairsSel] {
		t.Error("loaded profile differs from stored")
	}
	if _, err := st.LoadProfile(context.Background(), "missing"); err == nil {
		t.Error("loading a missing profile should fail")
	}
}

func TestStoreSchemaRows(t *testing.T) {
	st := newStore(t)
	eng := engine.New(cluster.Default16(), 1)
	p := collectProfile(t, eng, "wordcount", "randomtext-1g")
	if err := st.PutProfile(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	// Every Table 5.1 feature-type row exists and is retrievable.
	for _, ft := range []string{
		matcher.FTDynMap, matcher.FTDynRed, matcher.FTStatMap,
		matcher.FTStatRed, matcher.FTCostMap, matcher.FTCostRed,
	} {
		row, ok, err := st.GetFeatures(context.Background(), ft, p.JobID)
		if err != nil || !ok {
			t.Fatalf("feature row %s missing: %v", ft, err)
		}
		if len(row.Columns) == 0 {
			t.Errorf("feature row %s empty", ft)
		}
	}
	// Prefix scans see exactly the rows of their type.
	entries, err := st.ScanFeatures(context.Background(), matcher.FTDynMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].JobID != p.JobID {
		t.Errorf("dynmap scan = %v", entries)
	}
	// The input size column rides with the dynamic features.
	if _, ok := entries[0].Row.Columns[matcher.InputBytesColumn]; !ok {
		t.Error("dynamic row missing input-size column")
	}
}

func TestStoreBoundsMaintenance(t *testing.T) {
	st := newStore(t)
	mk := func(id string, v float64) *profile.Profile {
		p := &profile.Profile{
			JobID: id, JobName: "j", InputBytes: 1,
			Map: profile.NewSide(), Reduce: profile.NewSide(),
		}
		for _, f := range profile.MapDataFlowFeatures {
			p.Map.DataFlow[f] = v
		}
		return p
	}
	if err := st.PutProfile(context.Background(), mk("a", 5)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutProfile(context.Background(), mk("b", 11)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutProfile(context.Background(), mk("c", 2)); err != nil {
		t.Fatal(err)
	}
	min, max, err := st.Bounds(context.Background(), matcher.FTDynMap, profile.MapDataFlowFeatures)
	if err != nil {
		t.Fatal(err)
	}
	for i := range min {
		if min[i] != 2 || max[i] != 11 {
			t.Errorf("bounds[%d] = [%v,%v], want [2,11]", i, min[i], max[i])
		}
	}
}

// fullProfile is a hand-built profile with every Table 5.1 feature set:
// feature i of each set is v*(i+1), so a larger v widens every max.
func fullProfile(id string, v float64) *profile.Profile {
	p := &profile.Profile{
		JobID: id, JobName: "j", DatasetName: "ds", InputBytes: 1 << 30,
		NumMapTasks: 16, NumReduceTasks: 4, Complete: true,
		Map: profile.NewSide(), Reduce: profile.NewSide(),
	}
	for _, set := range []struct {
		m        map[string]float64
		features []string
	}{
		{p.Map.DataFlow, profile.MapDataFlowFeatures},
		{p.Reduce.DataFlow, profile.ReduceDataFlowFeatures},
		{p.Map.CostFactors, profile.MapCostFeatures},
		{p.Reduce.CostFactors, profile.ReduceCostFeatures},
	} {
		for i, f := range set.features {
			set.m[f] = v * float64(i+1)
		}
	}
	p.Map.StaticCategorical = map[string]string{"MAPPER": "M", "MAP_OUT_KEY": "Text"}
	p.Reduce.StaticCategorical = map[string]string{"REDUCER": "R", "RED_OUT_VAL": "IntWritable"}
	p.Map.StaticCFG, p.Reduce.StaticCFG = "B L(B)", "B"
	return p
}

// TestBoundsCellsDeterministic: two fresh stores on a pinned clock that
// are given the same profiles hold the same cells, timestamps included.
// The bounds rows are where this can break: they are written from a map
// of changed columns.
func TestBoundsCellsDeterministic(t *testing.T) {
	ctx := context.Background()
	export := func() []hstore.Cell {
		srv := hstore.NewServer()
		srv.WallClock = func() time.Time { return time.Unix(0, 0) }
		st, err := core.NewStore(ctx, hstore.Connect(srv))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []float64{5, 11, 2} {
			if err := st.PutProfile(ctx, fullProfile(fmt.Sprintf("job-%d", i), v)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := srv.ExportRegion(core.TableName, srv.Meta()[0].RegionID)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Cells
	}
	a, b := export(), export()
	if len(a) != len(b) {
		t.Fatalf("the stores hold %d and %d cells", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("cell %d differs: %s/%s@%d vs %s/%s@%d",
				i, a[i].Row, a[i].Column, a[i].Ts, b[i].Row, b[i].Column, b[i].Ts)
		}
	}
}

func TestStoreJobIDs(t *testing.T) {
	st := newStore(t)
	eng := engine.New(cluster.Default16(), 1)
	p1 := collectProfile(t, eng, "wordcount", "randomtext-1g")
	p2 := collectProfile(t, eng, "sort", "tera-1g")
	_ = st.PutProfile(context.Background(), p1)
	_ = st.PutProfile(context.Background(), p2)
	ids, err := st.JobIDs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("JobIDs = %v", ids)
	}
	if n, _ := st.Len(context.Background()); n != 2 {
		t.Errorf("Len = %d", n)
	}
}

func TestStoreRejectsAnonymousProfile(t *testing.T) {
	st := newStore(t)
	if err := st.PutProfile(context.Background(), &profile.Profile{}); err == nil {
		t.Error("profile without JobID accepted")
	}
}

func TestDefaultConfigHonoursCombiner(t *testing.T) {
	wc, _ := workloads.JobByName("wordcount")
	inv, _ := workloads.JobByName("inverted-index")
	if !core.DefaultConfig(wc).UseCombiner {
		t.Error("wordcount ships a combiner; the default run must use it")
	}
	if core.DefaultConfig(inv).UseCombiner {
		t.Error("inverted index has no combiner; the default run must not enable one")
	}
}

// TestSystemWorkflow walks Fig 1.2 end to end: first submission of a
// job finds no match, runs profiled, and stores its profile; the second
// submission matches it and runs tuned.
func TestSystemWorkflow(t *testing.T) {
	eng := engine.New(cluster.Default16(), 77)
	sys := core.NewSystem(newStore(t), eng)
	sys.CBO.Seed = 3
	// Keep the CBO search small for test speed.
	sys.CBO.ExploreSamples = 20
	sys.CBO.ExploitSteps = 10
	sys.CBO.Restarts = 1

	spec, _ := workloads.JobByName("cooccurrence-pairs")
	ds, _ := workloads.DatasetByName("randomtext-1g")

	first, err := sys.Submit(context.Background(), spec, ds, core.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Tuned {
		t.Fatal("first submission with an empty store cannot be tuned")
	}
	if !first.ProfileStored || first.StoredProfileID == "" {
		t.Error("first submission should store its profile")
	}
	if first.SampleCostMs <= 0 {
		t.Error("sampling cost not recorded")
	}

	second, err := sys.Submit(context.Background(), spec, ds, core.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Tuned {
		t.Fatalf("second submission did not match its own stored profile: %+v", second.Match.MapReport)
	}
	if !strings.HasPrefix(second.Match.MapJobID, "cooccurrence-pairs") {
		t.Errorf("matched %s, want the job's own profile", second.Match.MapJobID)
	}
	if second.ProfileStored {
		t.Error("tuned run must not store a new profile (profiler off)")
	}
	// Tuning must help a shuffle-heavy job: the tuned run should beat
	// the first (profiled, default-config) run comfortably.
	if second.RuntimeMs >= first.RuntimeMs {
		t.Errorf("tuned run %.0fms not faster than default profiled run %.0fms",
			second.RuntimeMs, first.RuntimeMs)
	}
}

func TestCollectAndStore(t *testing.T) {
	eng := engine.New(cluster.Default16(), 5)
	st := newStore(t)
	sys := core.NewSystem(st, eng)
	spec, _ := workloads.JobByName("sort")
	ds, _ := workloads.DatasetByName("tera-1g")
	p, err := sys.CollectAndStore(context.Background(), spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Complete {
		t.Error("CollectAndStore should produce a complete profile")
	}
	if n, _ := st.Len(context.Background()); n != 1 {
		t.Errorf("store has %d profiles, want 1", n)
	}
}

func sampleOf(t *testing.T, eng *engine.Engine, job, dsName string) *profile.Profile {
	t.Helper()
	spec, _ := workloads.JobByName(job)
	ds, _ := workloads.DatasetByName(dsName)
	s, _, err := eng.CollectSample(spec, ds, core.DefaultConfig(spec), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.InputBytes = ds.NominalBytes
	return s
}

func mustDataset(t *testing.T, name string) *data.Dataset {
	t.Helper()
	ds, err := workloads.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestResubmitMatchesOwnProfilesInSmallStore: a job resubmitted to a
// store holding only its own profiles matches them on both sides. With
// so few profiles the store's feature range is (nearly) one point, and
// the normalization floor must be laid around those stored points, not
// around the span the probe adds: a combiner job's one-task sample
// reduces at selectivity 1 against the full run's ~0.6, and a floor
// centred on that probe-made span would put the two ~0.8 of the range
// apart on each of two features — past the stage-1 threshold.
func TestResubmitMatchesOwnProfilesInSmallStore(t *testing.T) {
	for _, job := range []string{"wordcount", "cooccurrence-stripes"} {
		spec, err := workloads.JobByName(job)
		if err != nil {
			t.Fatal(err)
		}
		ds := mustDataset(t, "randomtext-1g")
		for stored := 1; stored <= 3; stored++ {
			sys := core.NewSystem(newStore(t), engine.New(cluster.Default16(), 7))
			sys.CBO.ExploreSamples, sys.CBO.ExploitSteps, sys.CBO.Restarts = 5, 2, 1
			for i := 0; i < stored; i++ {
				if _, err := sys.CollectAndStore(context.Background(), spec, ds); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sys.Submit(context.Background(), spec, ds, core.TuneOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Match; !res.Tuned || m.MapReport.Failed || m.ReduceReport.Failed {
				t.Errorf("%s against %d stored profiles of itself: tuned=%v, map %+v, reduce %+v",
					job, stored, res.Tuned, m.MapReport, m.ReduceReport)
			}
		}
	}
}
