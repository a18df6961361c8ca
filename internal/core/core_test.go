package core_test

import (
	"context"
	"strings"
	"testing"

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

func TestDeleteProfile(t *testing.T) {
	st := newStore(t)
	eng := engine.New(cluster.Default16(), 6)
	p1 := collectProfile(t, eng, "wordcount", "randomtext-1g")
	p2 := collectProfile(t, eng, "sort", "tera-1g")
	_ = st.PutProfile(context.Background(), p1)
	_ = st.PutProfile(context.Background(), p2)

	if err := st.DeleteProfile(context.Background(), p1.JobID); err != nil {
		t.Fatal(err)
	}
	ids, err := st.JobIDs(context.Background())
	if err != nil || len(ids) != 1 || ids[0] != p2.JobID {
		t.Fatalf("after delete JobIDs = %v (%v)", ids, err)
	}
	if _, err := st.LoadProfile(context.Background(), p1.JobID); err == nil {
		t.Error("deleted profile still loadable")
	}
	// Feature rows are gone too, so the matcher cannot see the ghost.
	for _, ft := range []string{matcher.FTDynMap, matcher.FTStatMap, matcher.FTCostMap} {
		if _, ok, _ := st.GetFeatures(context.Background(), ft, p1.JobID); ok {
			t.Errorf("feature row %s survived deletion", ft)
		}
	}
	entries, err := st.ScanFeatures(context.Background(), matcher.FTDynMap, nil)
	if err != nil || len(entries) != 1 {
		t.Errorf("dynmap scan after delete = %v (%v)", entries, err)
	}
	// The survivor still matches.
	res, err := matcher.New().Match(context.Background(), st, sampleOf(t, eng, "sort", "tera-1g"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched() && res.MapJobID == p1.JobID {
		t.Error("matcher returned a deleted profile")
	}
}
