package pstorm_test

import (
	"context"
	"strings"
	"testing"

	"pstorm"
	"pstorm/internal/data"
)

// TestQuickstartFlow is the README's quickstart, as a test: open a
// system, submit a job twice, watch the second submission get tuned
// from the first's stored profile.
func TestQuickstartFlow(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	job := pstorm.CoOccurrencePairs(2)
	ds, err := pstorm.DatasetByName("randomtext-1g")
	if err != nil {
		t.Fatal(err)
	}

	first, err := sys.Submit(job, ds)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tuned || !first.ProfileStored {
		t.Fatalf("first submission: %s", pstorm.Describe(first))
	}
	if !strings.Contains(pstorm.Describe(first), "no matching profile") {
		t.Errorf("Describe(first) = %q", pstorm.Describe(first))
	}

	second, err := sys.Submit(job, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Tuned {
		t.Fatalf("second submission not tuned: %s", pstorm.Describe(second))
	}
	if !strings.Contains(pstorm.Describe(second), "tuned via") {
		t.Errorf("Describe(second) = %q", pstorm.Describe(second))
	}
	if second.RuntimeMs >= first.RuntimeMs {
		t.Errorf("tuned run (%.0f ms) not faster than profiled default (%.0f ms)",
			second.RuntimeMs, first.RuntimeMs)
	}

	ids, err := sys.StoredProfiles()
	if err != nil || len(ids) != 1 {
		t.Fatalf("StoredProfiles = %v, %v", ids, err)
	}
	p, err := sys.LoadProfile(ids[0])
	if err != nil || p.JobName != "cooccurrence-pairs" {
		t.Fatalf("LoadProfile: %v, %v", p, err)
	}
}

func TestOpenDefaults(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine() == nil || sys.Store() == nil {
		t.Fatal("Open left nils")
	}
}

func TestRegisteredJobsAndDatasets(t *testing.T) {
	jobs := []*pstorm.Job{
		pstorm.WordCount(), pstorm.CoOccurrencePairs(2), pstorm.CoOccurrenceStripes(2),
		pstorm.BigramRelativeFrequency(), pstorm.InvertedIndex(), pstorm.Sort(),
		pstorm.Join(), pstorm.ItemCF(), pstorm.CloudBurst(), pstorm.Grep("x"),
	}
	jobs = append(jobs, pstorm.FrequentItemsets()...)
	jobs = append(jobs, pstorm.PigMix()...)
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("%s: %v", j.Name, err)
		}
	}
	if len(pstorm.Datasets()) < 10 {
		t.Errorf("only %d datasets registered", len(pstorm.Datasets()))
	}
}

func TestTuneAndWhatIfRoundTrip(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	job := pstorm.WordCount()
	ds, _ := pstorm.DatasetByName("randomtext-1g")
	prof, err := sys.CollectAndStore(job, ds)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.TuneProfile(context.Background(), prof, ds, pstorm.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, predicted := rec.Config, rec.PredictedMs
	again, err := sys.WhatIf(prof, ds.NominalBytes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != predicted {
		t.Errorf("WhatIf(%v) != Tune's prediction (%v)", again, predicted)
	}
	defMs, err := sys.WhatIf(prof, ds.NominalBytes, pstorm.DefaultConfig(job))
	if err != nil {
		t.Fatal(err)
	}
	if predicted > defMs {
		t.Errorf("tuned prediction %v worse than default %v", predicted, defMs)
	}
}

func TestCustomDatasetAndJob(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ds := data.New("mine", data.KindTeraGen, pstorm.GB/4, 123)
	ms, err := sys.Run(pstorm.Sort(), ds, pstorm.DefaultConfig(pstorm.Sort()))
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Error("run returned non-positive runtime")
	}
	rboCfg, err := sys.TuneRuleBased(pstorm.Sort(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := rboCfg.Validate(); err != nil {
		t.Errorf("RBO config invalid: %v", err)
	}
}

func TestMatchWithoutExecuting(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := pstorm.DatasetByName("tera-1g")
	if _, err := sys.CollectAndStore(pstorm.Sort(), ds); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CollectAndStore(pstorm.Join(), mustDS(t, "tpch-1g")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CollectAndStore(pstorm.WordCount(), mustDS(t, "randomtext-1g")); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Match(pstorm.Sort(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() || !strings.HasPrefix(res.MapJobID, "sort") {
		t.Errorf("match = %+v", res)
	}
}

func mustDS(t *testing.T, name string) *pstorm.Dataset {
	t.Helper()
	ds, err := pstorm.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
