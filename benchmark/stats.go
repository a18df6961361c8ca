package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest value with at least q of the samples at
// or below it. An empty slice reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// slicedPercentile cuts vals, which are in arrival order, into
// consecutive slices of at least minSlice values, takes the q-quantile
// of each and returns the median of those. In an open loop one stall
// delays every request due while it lasts, so a single hiccup of the
// host can move the plain p95 of a whole phase; it moves one slice here.
func slicedPercentile(vals []float64, q float64, minSlice int) float64 {
	k := max(1, len(vals)/minSlice)
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(sortedCopy(vals[i*len(vals)/k:(i+1)*len(vals)/k]), q)
	}
	return median(per)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func median(vals []float64) float64 {
	s := sortedCopy(vals)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive" method:
// position i*(n+1)/4 with linear interpolation, clamped to the data),
// because that is the spread the acceptance rule is stated in.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// number the bounds in BENCHMARK.json are compared against.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

// dueAt is the open-loop schedule: request i of a phase that starts at
// start and fires at rate requests per second is due at start + i/rate,
// whatever happened to the requests before it. Latency is taken from
// this instant, so a stall is charged to every request it delays.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// scheduledCount is how many requests an open-loop phase of the given
// length fires at the given rate (those due strictly inside it).
func scheduledCount(length time.Duration, rate float64) int {
	return int(math.Ceil(length.Seconds() * rate))
}

// smoothRR is smooth weighted round-robin: item i is picked in
// proportion to weights[i], with its picks spread evenly, so every
// prefix of the sequence holds each item within one pick of its exact
// share. The benchmark uses it instead of random draws so that the mix
// of cheap and expensive operations inside a time-boxed window does not
// depend on the seed.
type smoothRR struct {
	weights []float64
	current []float64
	total   float64
}

func newSmoothRR(weights []float64) *smoothRR {
	s := &smoothRR{weights: weights, current: make([]float64, len(weights))}
	for _, w := range weights {
		s.total += w
	}
	return s
}

func (s *smoothRR) next() int {
	best := 0
	for i, w := range s.weights {
		s.current[i] += w
		if s.current[i] > s.current[best] {
			best = i
		}
	}
	s.current[best] -= s.total
	return best
}

// zipfWeights are the popularity weights 1/rank^exponent for n ranks.
func zipfWeights(n int, exponent float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), exponent)
	}
	return w
}
