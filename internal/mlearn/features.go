package mlearn

import (
	"math"
	"sort"
)

// Information-gain feature ranking (§6.1.1): the generic alternative to
// PStorM's domain-specific feature selection. Features are ranked by
// the information gain of the (discretized) feature with respect to a
// class label — here the identity of the job a profile came from.

// NumericColumn is one candidate numeric feature across all samples.
type NumericColumn struct {
	Name   string
	Values []float64
}

// CategoricalColumn is one candidate categorical feature.
type CategoricalColumn struct {
	Name   string
	Values []string
}

// RankedFeature is a feature with its information-gain score.
type RankedFeature struct {
	Name        string
	Gain        float64
	Categorical bool
}

// entropy of a discrete label distribution.
func entropy(counts map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// InfoGainNumeric computes the information gain of a numeric feature
// discretized into equal-width bins over its observed range.
func InfoGainNumeric(values []float64, labels []string, bins int) float64 {
	if len(values) == 0 || len(values) != len(labels) {
		return 0
	}
	if bins < 2 {
		bins = 10
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	binOf := func(v float64) int {
		if hi <= lo {
			return 0
		}
		b := int(float64(bins) * (v - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		return b
	}
	total := len(values)
	classCounts := make(map[string]int)
	binClass := make([]map[string]int, bins)
	binTotal := make([]int, bins)
	for i := range binClass {
		binClass[i] = make(map[string]int)
	}
	for i, v := range values {
		classCounts[labels[i]]++
		b := binOf(v)
		binClass[b][labels[i]]++
		binTotal[b]++
	}
	h := entropy(classCounts, total)
	cond := 0.0
	for b := 0; b < bins; b++ {
		if binTotal[b] == 0 {
			continue
		}
		cond += float64(binTotal[b]) / float64(total) * entropy(binClass[b], binTotal[b])
	}
	return h - cond
}

// InfoGainCategorical computes the information gain of a categorical
// feature (each distinct value is its own partition).
func InfoGainCategorical(values []string, labels []string) float64 {
	if len(values) == 0 || len(values) != len(labels) {
		return 0
	}
	total := len(values)
	classCounts := make(map[string]int)
	partClass := make(map[string]map[string]int)
	partTotal := make(map[string]int)
	for i, v := range values {
		classCounts[labels[i]]++
		if partClass[v] == nil {
			partClass[v] = make(map[string]int)
		}
		partClass[v][labels[i]]++
		partTotal[v]++
	}
	h := entropy(classCounts, total)
	cond := 0.0
	for v, t := range partTotal {
		cond += float64(t) / float64(total) * entropy(partClass[v], t)
	}
	return h - cond
}

// RankFeatures scores every candidate feature by information gain with
// respect to the labels and returns them best first. Ties break by
// name for determinism.
func RankFeatures(numeric []NumericColumn, categorical []CategoricalColumn, labels []string, bins int) []RankedFeature {
	out := make([]RankedFeature, 0, len(numeric)+len(categorical))
	for _, col := range numeric {
		out = append(out, RankedFeature{
			Name: col.Name,
			Gain: InfoGainNumeric(col.Values, labels, bins),
		})
	}
	for _, col := range categorical {
		out = append(out, RankedFeature{
			Name:        col.Name,
			Gain:        InfoGainCategorical(col.Values, labels),
			Categorical: true,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// NormalizedDistances returns the min-max-normalized Euclidean distance
// of every row of X from q, with normalization bounds computed over X
// plus q (so all distances share one scale).
func NormalizedDistances(X [][]float64, q []float64) []float64 {
	nf := len(q)
	minB := append([]float64(nil), q...)
	maxB := append([]float64(nil), q...)
	for _, row := range X {
		for f := 0; f < nf; f++ {
			if row[f] < minB[f] {
				minB[f] = row[f]
			}
			if row[f] > maxB[f] {
				maxB[f] = row[f]
			}
		}
	}
	norm := func(v float64, f int) float64 {
		if maxB[f] <= minB[f] {
			return 0
		}
		return (v - minB[f]) / (maxB[f] - minB[f])
	}
	out := make([]float64, len(X))
	for i, row := range X {
		sum := 0.0
		for f := 0; f < nf; f++ {
			d := norm(row[f], f) - norm(q[f], f)
			sum += d * d
		}
		out[i] = math.Sqrt(sum)
	}
	return out
}
