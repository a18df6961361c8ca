package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/engine"
	"pstorm/internal/obs"
	"pstorm/internal/whatif"
)

func tuneSystem(t *testing.T) (*core.System, *obs.Registry) {
	t.Helper()
	eng := engine.New(cluster.Default16(), 11)
	sys := core.NewSystem(newStore(t), eng)
	sys.CBO.Seed = 5
	sys.CBO.ExploreSamples = 20
	sys.CBO.ExploitSteps = 10
	sys.CBO.Restarts = 1
	sys.Obs = obs.NewRegistry()
	sys.Evaluator = whatif.NewEvaluator(whatif.EvaluatorOptions{Obs: sys.Obs})
	return sys, sys.Obs
}

func TestSystemTuneDerivesCombinerAndRecordsMetrics(t *testing.T) {
	sys, reg := tuneSystem(t)
	prof := collectProfile(t, sys.Engine, "wordcount", "randomtext-1g")
	if !core.ProfileHasCombiner(prof) {
		t.Fatal("wordcount profile should carry its combiner in the static features")
	}

	rec, err := sys.Tune(context.Background(), prof, prof.InputBytes, core.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Config.UseCombiner {
		t.Error("tune of a combiner job recommended a combiner-less default baseline")
	}

	snap := reg.Snapshot()
	if snap.Counters["tune_evaluations_total"] != int64(rec.Evaluations) {
		t.Errorf("tune_evaluations_total = %d, want %d",
			snap.Counters["tune_evaluations_total"], rec.Evaluations)
	}
	if h, ok := snap.Histograms["tune_latency_ms"]; !ok || h.Count != 1 {
		t.Errorf("tune_latency_ms histogram = %+v, want one observation", h)
	}
	if h, ok := snap.Histograms["tune_evaluations_per_tune"]; !ok || h.Count != 1 {
		t.Errorf("tune_evaluations_per_tune histogram = %+v, want one observation", h)
	}
}

func TestSystemTuneDeadline(t *testing.T) {
	sys, _ := tuneSystem(t)
	prof := collectProfile(t, sys.Engine, "wordcount", "randomtext-1g")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := sys.Tune(ctx, prof, prof.InputBytes, core.TuneOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context returned %v, want context.DeadlineExceeded", err)
	}
	// The same deadline behaviour must hold when the deadline comes from
	// TuneOptions instead of the caller's context.
	if _, err := sys.Tune(context.Background(), prof, prof.InputBytes,
		core.TuneOptions{Deadline: time.Nanosecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TuneOptions.Deadline returned %v, want context.DeadlineExceeded", err)
	}
}

func TestSystemTuneBudget(t *testing.T) {
	sys, _ := tuneSystem(t)
	prof := collectProfile(t, sys.Engine, "grep", "randomtext-1g")
	rec, err := sys.Tune(context.Background(), prof, prof.InputBytes, core.TuneOptions{Budget: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Evaluations > 9 {
		t.Errorf("budget 9 exceeded: %d evaluations", rec.Evaluations)
	}
}
