package mlearn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// stepData builds a dataset where y is a step function of feature 0.
func stepData(n int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := r.Float64()
		x1 := r.Float64() // pure noise feature
		X[i] = []float64{x0, x1}
		if x0 < 0.5 {
			y[i] = 1
		} else {
			y[i] = 5
		}
	}
	return X, y
}

func TestTreeLearnsStepFunction(t *testing.T) {
	X, y := stepData(400, 1)
	tree, err := FitTree(X, y, TreeOptions{MaxDepth: 2, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0.1, 0.9}); math.Abs(got-1) > 0.3 {
		t.Errorf("predict(low) = %v, want ~1", got)
	}
	if got := tree.Predict([]float64{0.9, 0.1}); math.Abs(got-5) > 0.3 {
		t.Errorf("predict(high) = %v, want ~5", got)
	}
	if tree.Depth() < 1 {
		t.Error("tree did not split at all")
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	X, y := stepData(30, 2)
	tree, err := FitTree(X, y, TreeOptions{MaxDepth: 10, MinLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Errorf("depth %d with MinLeaf 20 over 30 rows, want a single leaf", tree.Depth())
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeOptions{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1, 2}, TreeOptions{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// Property: tree predictions stay within the observed target range.
func TestTreePredictionRangeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 60 + r.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{r.Float64() * 10, r.NormFloat64()}
			y[i] = r.Float64()*100 - 50
			lo, hi = math.Min(lo, y[i]), math.Max(hi, y[i])
		}
		tree, err := FitTree(X, y, TreeOptions{MaxDepth: 4, MinLeaf: 3})
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			p := tree.Predict([]float64{r.Float64() * 10, r.NormFloat64()})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGBMImprovesOnConstant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := r.Float64(), r.Float64()
		X[i] = []float64{a, b}
		y[i] = 3*a + math.Sin(5*b) // smooth nonlinear target
	}
	m, err := FitGBM(X, y, GBMOptions{NTrees: 300, Shrinkage: 0.1, InteractionDepth: 3,
		BagFraction: 0.8, TrainFraction: 1, MinObsInNode: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	var sseModel, sseConst float64
	for i := range X {
		d := y[i] - m.Predict(X[i])
		sseModel += d * d
		c := y[i] - mean
		sseConst += c * c
	}
	if sseModel > sseConst/4 {
		t.Errorf("GBM SSE %v not much better than constant %v", sseModel, sseConst)
	}
}

func TestGBMLaplaceHandlesOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := r.Float64()
		X[i] = []float64{a}
		y[i] = a
		if i%20 == 0 {
			y[i] = 1000 // gross outliers
		}
	}
	fit := func(d Distribution) float64 {
		m, err := FitGBM(X, y, GBMOptions{NTrees: 200, Shrinkage: 0.1, InteractionDepth: 2,
			BagFraction: 0.8, TrainFraction: 1, MinObsInNode: 5, Dist: d, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Median absolute error on the clean portion.
		var errs []float64
		for i := range X {
			if y[i] < 100 {
				errs = append(errs, math.Abs(y[i]-m.Predict(X[i])))
			}
		}
		return median(errs)
	}
	if lap, gau := fit(Laplace), fit(Gaussian); lap >= gau {
		t.Errorf("Laplace clean-data error %v should beat Gaussian %v under outliers", lap, gau)
	}
}

func TestGBMDeterministicPerSeed(t *testing.T) {
	X, y := stepData(150, 9)
	opt := GBRT1()
	opt.NTrees = 100
	opt.Seed = 4
	a, err := FitGBM(X, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitGBM(X, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same seed produced different models")
	}
}

func TestGBRTSettingsMatchPaper(t *testing.T) {
	g1 := GBRT1()
	if g1.NTrees != 2000 || g1.Shrinkage != 0.005 || g1.TrainFraction != 0.5 ||
		g1.CVFolds != 10 || g1.Dist != Gaussian {
		t.Errorf("GBRT1 = %+v", g1)
	}
	if GBRT2().Dist != Laplace {
		t.Error("GBRT2 should use Laplace")
	}
	g3 := GBRT3()
	if g3.NTrees != 10000 || g3.Shrinkage != 0.001 || g3.TrainFraction != 0.8 {
		t.Errorf("GBRT3 = %+v", g3)
	}
	if GBRT4().TrainFraction != 1.0 {
		t.Error("GBRT4 should train on 100% of the data")
	}
}

func TestInfoGainNumericDiscriminates(t *testing.T) {
	// Feature aligned with the class beats a noise feature.
	labels := make([]string, 200)
	aligned := make([]float64, 200)
	noise := make([]float64, 200)
	r := rand.New(rand.NewSource(1))
	for i := range labels {
		if i%2 == 0 {
			labels[i] = "a"
			aligned[i] = r.Float64()
		} else {
			labels[i] = "b"
			aligned[i] = 10 + r.Float64()
		}
		noise[i] = r.Float64()
	}
	ga := InfoGainNumeric(aligned, labels, 10)
	gn := InfoGainNumeric(noise, labels, 10)
	if ga <= gn {
		t.Errorf("aligned gain %v <= noise gain %v", ga, gn)
	}
	if ga < 0.9 {
		t.Errorf("perfectly separating feature gain %v, want ~1 bit", ga)
	}
}

func TestInfoGainCategorical(t *testing.T) {
	labels := []string{"a", "a", "b", "b"}
	perfect := []string{"x", "x", "y", "y"}
	useless := []string{"z", "z", "z", "z"}
	if g := InfoGainCategorical(perfect, labels); math.Abs(g-1) > 1e-9 {
		t.Errorf("perfect categorical gain = %v, want 1", g)
	}
	if g := InfoGainCategorical(useless, labels); g != 0 {
		t.Errorf("constant categorical gain = %v, want 0", g)
	}
}

func TestRankFeaturesOrdering(t *testing.T) {
	labels := []string{"a", "a", "b", "b"}
	ranked := RankFeatures(
		[]NumericColumn{
			{Name: "good", Values: []float64{0, 0, 10, 10}},
			{Name: "bad", Values: []float64{1, 1, 1, 1}},
		},
		[]CategoricalColumn{{Name: "cat", Values: []string{"p", "p", "q", "q"}}},
		labels, 4)
	if ranked[len(ranked)-1].Name != "bad" {
		t.Errorf("useless feature not ranked last: %v", ranked)
	}
	if !ranked[0].Categorical && ranked[0].Name != "good" {
		t.Errorf("top feature should be informative: %v", ranked[0])
	}
}

// NearestNeighbor finds the row of X closest to q under min-max
// normalized Euclidean distance (the matching rule of the P-features
// and SP-features baselines). It returns the row index and distance,
// or (-1, +Inf) when X is empty.
func NearestNeighbor(X [][]float64, q []float64) (int, float64) {
	if len(X) == 0 {
		return -1, math.Inf(1)
	}
	nf := len(q)
	minB := make([]float64, nf)
	maxB := make([]float64, nf)
	copy(minB, q)
	copy(maxB, q)
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
	best, bestD := -1, math.Inf(1)
	for i, row := range X {
		sum := 0.0
		for f := 0; f < nf; f++ {
			d := norm(row[f], f) - norm(q[f], f)
			sum += d * d
		}
		if d := math.Sqrt(sum); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestNearestNeighbor(t *testing.T) {
	X := [][]float64{{0, 0}, {10, 10}, {5, 5}}
	idx, d := NearestNeighbor(X, []float64{4.6, 5.2})
	if idx != 2 {
		t.Errorf("NN = %d, want 2", idx)
	}
	if d < 0 {
		t.Errorf("distance %v negative", d)
	}
	if idx, _ := NearestNeighbor(nil, []float64{1}); idx != -1 {
		t.Error("empty X should return -1")
	}
}

// Property: NormalizedDistances are non-negative, bounded by
// sqrt(#features), and zero for an identical row.
func TestNormalizedDistancesProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nf := 1 + r.Intn(6)
		n := 2 + r.Intn(20)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = r.NormFloat64() * 100
			}
		}
		q := append([]float64(nil), X[0]...)
		ds := NormalizedDistances(X, q)
		if ds[0] != 0 {
			return false
		}
		limit := math.Sqrt(float64(nf)) + 1e-9
		for _, d := range ds {
			if d < 0 || d > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
