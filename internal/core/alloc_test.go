package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pstorm/internal/cbo"
	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/engine"
	"pstorm/internal/profile"
	"pstorm/internal/workloads"
)

// putProfileAllocs is what one in-process PutProfile allocates: the
// profile's encoding, its seven feature rows and the four bounds rows
// it reads and widens, each through hstore's write path. Allocation
// repeats run to run where timings do not, so a write-path change that
// costs allocations shows here first.
const putProfileAllocs = 301

// TestPutProfileAllocs holds one in-process PutProfile to within 1 % of
// putProfileAllocs. Every profile it stores is new and raises every
// max bound, so each call writes its seven rows and one bounds cell per
// feature. A change that moves the count on purpose updates the
// constant and says why.
func TestPutProfileAllocs(t *testing.T) {
	if testing.Short() {
		// Under -race, sync.Pool drops items at random, so the count
		// drifts by a few; CI runs the race detector with -short.
		t.Skip("allocation golden; run without -short and -race")
	}
	ctx := context.Background()
	st := newStore(t)
	const runs = 20
	// AllocsPerRun calls the function once more to warm up.
	ps := make([]*profile.Profile, runs+1)
	for i := range ps {
		ps[i] = fullProfile(fmt.Sprintf("job-%03d", i), float64(i+1))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := st.PutProfile(ctx, ps[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.1f allocations per PutProfile", allocs)
	if math.Abs(allocs-putProfileAllocs) > putProfileAllocs/100 {
		t.Errorf("one PutProfile allocated %.0f times, want %d ± 1 %%", allocs, putProfileAllocs)
	}
}

// submitAllocs is what one in-process Submit of pigmix-l3 allocates once
// its profile is stored: the 1-task sample through the DSL, the match,
// a full CBO search over the What-If model and the tuned run, the
// engine's share of which the DSL's value representation decides.
const submitAllocs = 9971

// TestSubmitAllocs holds one matched, tuned Submit to within 1 % of
// submitAllocs. A change that moves the count on purpose updates the
// constant and says why.
func TestSubmitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation golden; run without -short and -race")
	}
	ctx := context.Background()
	spec, err := workloads.JobByName("pigmix-l3")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workloads.DatasetByName("pigmix-1g")
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(newStore(t), engine.New(cluster.Default16(), 7))
	tuned := 0
	submit := func() {
		res, err := sys.Submit(ctx, spec, ds, core.TuneOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuned {
			tuned++
		}
	}
	// The first Submit stores the profile; AllocsPerRun's own warm-up
	// call then tunes once, so every counted call takes the same path.
	submit()
	allocs := testing.AllocsPerRun(10, submit)
	if tuned != 11 {
		t.Fatalf("%d of 11 Submits after the first were tuned, want all", tuned)
	}
	t.Logf("%.1f allocations per Submit", allocs)
	if math.Abs(allocs-submitAllocs) > submitAllocs/100 {
		t.Errorf("one Submit allocated %.0f times, want %d ± 1 %%", allocs, submitAllocs)
	}
}

// optimizeAllocs is what one cbo.Optimize of a stored pigmix-l3 profile
// allocates: the 301-evaluation search over the What-If model, every
// prediction computed afresh (no evaluator cache).
const optimizeAllocs = 1525

// TestOptimizeAllocs holds one Optimize of the profile the store hands
// back for pigmix-l3 to within 1 % of optimizeAllocs. A change that
// moves the count on purpose updates the constant and says why.
func TestOptimizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation golden; run without -short and -race")
	}
	ctx := context.Background()
	st := newStore(t)
	cl := cluster.Default16()
	p := collectProfile(t, engine.New(cl, 7), "pigmix-l3", "pigmix-1g")
	if err := st.PutProfile(ctx, p); err != nil {
		t.Fatal(err)
	}
	stored, err := st.LoadProfile(ctx, p.JobID)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.JobByName("pigmix-l3")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		rec, err := cbo.Optimize(ctx, stored, stored.InputBytes, cl, spec.HasCombiner(), cbo.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Evaluations != 301 {
			t.Fatalf("%d evaluations, want 301", rec.Evaluations)
		}
	})
	t.Logf("%.1f allocations per Optimize", allocs)
	if math.Abs(allocs-optimizeAllocs) > optimizeAllocs/100 {
		t.Errorf("one Optimize allocated %.0f times, want %d ± 1 %%", allocs, optimizeAllocs)
	}
}
