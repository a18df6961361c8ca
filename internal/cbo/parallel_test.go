package cbo

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/profile"
	"pstorm/internal/whatif"
)

// Tunes run in parallel only as concurrent requests sharing one tenant
// Evaluator. Each of them must still return, bit for bit, what a solo
// uncached search returns: the cache only ever stores exact answers,
// and no search state is shared between tunes.
func TestConcurrentTunesShareEvaluator(t *testing.T) {
	type tc struct {
		prof   *profile.Profile
		in     int64
		seed   int64
		budget int
	}
	var cases []tc
	seen := map[string]bool{}
	var cl *cluster.Cluster
	for _, job := range []string{"wordcount", "cooccurrence-pairs", "bigram-relfreq"} {
		run, c, in := profileFor(t, job, "wiki-35g")
		if seen[run.Profile.JobID] {
			t.Fatalf("%s: profile JobID %q is not unique, so the cache would conflate profiles", job, run.Profile.JobID)
		}
		seen[run.Profile.JobID] = true
		cl = c
		for _, seed := range []int64{3, 11} {
			for _, budget := range []int{0, 40} {
				cases = append(cases, tc{run.Profile, in, seed, budget})
			}
		}
	}
	want := make([]*Recommendation, len(cases))
	for i, c := range cases {
		rec, err := Optimize(context.Background(), c.prof, c.in, cl, true, Options{Seed: c.seed, MaxEvaluations: c.budget})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rec
	}

	eval := whatif.NewEvaluator(whatif.EvaluatorOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks every case from its own offset, so
			// the same question is asked by several tunes at once.
			for k := range cases {
				i := (g + k) % len(cases)
				c := cases[i]
				rec, err := Optimize(context.Background(), c.prof, c.in, cl, true,
					Options{Seed: c.seed, MaxEvaluations: c.budget, Evaluator: eval})
				if err != nil {
					t.Errorf("goroutine %d case %d: %v", g, i, err)
					return
				}
				w := want[i]
				if rec.Config != w.Config || rec.PredictedMs != w.PredictedMs ||
					rec.DefaultMs != w.DefaultMs || rec.Evaluations != w.Evaluations {
					t.Errorf("goroutine %d case %d: got %+v, want the solo search's %+v", g, i, rec, w)
				}
			}
		}()
	}
	wg.Wait()
	if eval.Hits() == 0 {
		t.Error("concurrent repeat tunes produced no cache hits")
	}
}

// A shared memoizing evaluator must not change the recommendation
// either — cached answers are exact, so cached and uncached searches
// agree bit-for-bit even when tunes repeat.
func TestOptimizeIdenticalWithEvaluator(t *testing.T) {
	run, cl, in := profileFor(t, "wordcount", "wiki-35g")
	plain, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	eval := whatif.NewEvaluator(whatif.EvaluatorOptions{})
	for i := 0; i < 2; i++ {
		rec, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 9, Evaluator: eval})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Config != plain.Config || rec.PredictedMs != plain.PredictedMs || rec.Evaluations != plain.Evaluations {
			t.Errorf("run %d through evaluator diverged from the uncached search", i)
		}
	}
	if eval.Hits() == 0 {
		t.Error("repeat tune produced no cache hits")
	}
}

func TestOptimizeContextCancellation(t *testing.T) {
	run, cl, in := profileFor(t, "wordcount", "wiki-35g")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // the deadline has certainly expired
	start := time.Now()
	_, err := Optimize(ctx, run.Profile, in, cl, true, Options{Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled search took %v to return", elapsed)
	}
}

func TestOptimizeMaxEvaluationsBudget(t *testing.T) {
	run, cl, in := profileFor(t, "wordcount", "wiki-35g")
	rec, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 2, MaxEvaluations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Evaluations > 25 {
		t.Errorf("budget 25 exceeded: %d evaluations", rec.Evaluations)
	}
	// The truncation must be deterministic too.
	again, err := Optimize(context.Background(), run.Profile, in, cl, true, Options{Seed: 2, MaxEvaluations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Config != again.Config || rec.Evaluations != again.Evaluations {
		t.Error("budgeted search not deterministic across runs")
	}
}
