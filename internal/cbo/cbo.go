// Package cbo implements the Starfish cost-based optimizer (§2.3.1): it
// searches the space of the 14 configuration parameters of Table 2.1,
// invoking the What-If engine at every candidate point, and recommends
// the configuration with the lowest predicted runtime. The search is
// recursive random search (the algorithm Starfish uses): global random
// exploration to find promising regions, then local neighbourhood
// exploitation around the incumbent, with restarts.
//
// The search runs in rounds: the candidates of every explore/exploit
// round are drawn up front from the seeded RNG, then evaluated in
// candidate order in the calling goroutine. A prediction costs a couple
// of microseconds, so a whole tune is about a millisecond of work and a
// worker pool costs more than it saves; tunes run in parallel only as
// concurrent requests, which may share one Evaluator.
package cbo

import (
	"context"
	"fmt"
	"math/rand"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/profile"
	"pstorm/internal/whatif"
)

// exploitBatch is the fixed exploitation round size. The incumbent a
// neighbour is generated from advances only at round boundaries, so
// changing it changes the search trajectory.
const exploitBatch = 8

// Options tune the search effort.
type Options struct {
	// ExploreSamples is the number of uniform random samples per restart
	// (default 60).
	ExploreSamples int
	// ExploitSteps is the number of local refinement steps around each
	// incumbent (default 40).
	ExploitSteps int
	// Restarts is the number of explore/exploit rounds (default 3).
	Restarts int
	// Seed drives the search's randomness (the What-If predictions
	// themselves are deterministic).
	Seed int64
	// MaxEvaluations caps the total number of What-If evaluations,
	// truncating rounds deterministically in candidate order (0: the
	// full ExploreSamples/ExploitSteps/Restarts effort).
	MaxEvaluations int
	// Evaluator, when non-nil, memoizes What-If evaluations — share one
	// across tunes so resubmissions of the same profile are answered
	// from cache. Nil computes every prediction directly.
	Evaluator *whatif.Evaluator
}

func (o Options) withDefaults() Options {
	if o.ExploreSamples <= 0 {
		o.ExploreSamples = 60
	}
	if o.ExploitSteps <= 0 {
		o.ExploitSteps = 40
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	return o
}

// Recommendation is the optimizer's output.
type Recommendation struct {
	Config conf.Config
	// PredictedMs is the What-If runtime of the recommended config.
	PredictedMs float64
	// DefaultMs is the What-If runtime of the default config, for
	// reporting predicted speedup.
	DefaultMs float64
	// Evaluations is the number of What-If calls made.
	Evaluations int
}

// Optimize searches for the configuration minimizing the What-If
// predicted runtime of the job represented by prof, processing
// inputBytes on cl. The default configuration (with the job's own
// combiner setting) is always evaluated, so the recommendation is never
// worse than the default in predicted terms. A cancelled or expired
// context aborts the search promptly (no further evaluations are
// started) and returns the context's error.
func Optimize(ctx context.Context, prof *profile.Profile, inputBytes int64, cl *cluster.Cluster, hasCombiner bool, opt Options) (*Recommendation, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed*2_654_435_761 + 99991))
	space := conf.DefaultSpace(cl.ReduceSlots())
	s := &search{ctx: ctx, prof: prof, inputBytes: inputBytes, cl: cl, opt: opt}

	def := whatif.Quantize(conf.Default())
	def.UseCombiner = hasCombiner
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defMs, err := s.eval(def)
	s.evals++
	if err != nil {
		return nil, fmt.Errorf("cbo: evaluating default config: %w", err)
	}

	best, bestMs := def, defMs
	for restart := 0; restart < opt.Restarts && !s.exhausted(); restart++ {
		// Exploration: uniform random samples over the space, all drawn
		// before any is evaluated.
		explore := make([]conf.Config, opt.ExploreSamples)
		for i := range explore {
			explore[i] = whatif.Quantize(space.Sample(rng))
		}
		incumbent, incumbentMs := s.round(explore, best, bestMs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Exploitation: hill-climb in the incumbent's neighbourhood, in
		// fixed-size rounds. Within a round every neighbour derives from
		// the same incumbent; the incumbent advances at round edges.
		for done := 0; done < opt.ExploitSteps && !s.exhausted(); {
			n := min(exploitBatch, opt.ExploitSteps-done)
			done += n
			batch := make([]conf.Config, n)
			for i := range batch {
				batch[i] = whatif.Quantize(space.Neighbor(incumbent, rng))
			}
			incumbent, incumbentMs = s.round(batch, incumbent, incumbentMs)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if incumbentMs < bestMs {
			best, bestMs = incumbent, incumbentMs
		}
	}
	return &Recommendation{Config: best, PredictedMs: bestMs, DefaultMs: defMs, Evaluations: s.evals}, nil
}

// search carries one Optimize invocation's state.
type search struct {
	ctx        context.Context
	prof       *profile.Profile
	inputBytes int64
	cl         *cluster.Cluster
	opt        Options
	evals      int
}

// exhausted reports whether the evaluation budget is spent.
func (s *search) exhausted() bool {
	return s.opt.MaxEvaluations > 0 && s.evals >= s.opt.MaxEvaluations
}

// round clips one generated batch to the remaining evaluation budget,
// evaluates it in candidate order, and returns the better of the
// incumbent and the batch's best. The comparison is a strict <, so of
// equal candidates the earliest wins; candidates whose prediction fails
// are skipped. Generation happens before clipping, so the RNG stream is
// identical with and without a budget. A cancelled context ends the
// round before its next candidate; the caller checks it after every
// round.
func (s *search) round(batch []conf.Config, incumbent conf.Config, incumbentMs float64) (conf.Config, float64) {
	if s.opt.MaxEvaluations > 0 {
		batch = batch[:min(len(batch), max(s.opt.MaxEvaluations-s.evals, 0))]
	}
	s.evals += len(batch)
	for _, c := range batch {
		if s.ctx.Err() != nil {
			break
		}
		if ms, err := s.eval(c); err == nil && ms < incumbentMs {
			incumbent, incumbentMs = c, ms
		}
	}
	return incumbent, incumbentMs
}

// eval answers one What-If question. A nil Evaluator computes it
// directly; Quantize is idempotent, so a candidate that is already
// canonical is predicted as is either way.
func (s *search) eval(c conf.Config) (float64, error) {
	return s.opt.Evaluator.PredictRuntime(s.prof, s.inputBytes, s.cl, c)
}
