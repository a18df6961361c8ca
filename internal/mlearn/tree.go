// Package mlearn provides the machine-learning substrate the paper's
// baselines need: CART regression trees and gradient-boosted regression
// trees (standing in for R's gbm package, §4.4/Appendix A),
// information-gain feature ranking (the P-features and SP-features
// selection baselines of §6.1.1), and normalized nearest-neighbour
// matching.
package mlearn

import (
	"fmt"
	"sort"
)

// RegressionTree is a CART tree fit by variance reduction.
type RegressionTree struct {
	root *treeNode
}

type treeNode struct {
	// Leaf prediction.
	value float64
	leaf  bool
	// Split.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
}

// TreeOptions control tree growth.
type TreeOptions struct {
	// MaxDepth bounds tree depth (gbm's interaction.depth); default 3.
	MaxDepth int
	// MinLeaf is the minimum observations per leaf (n.minobsinnode);
	// default 10.
	MinLeaf int
}

func (o TreeOptions) withDefaults() TreeOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 10
	}
	return o
}

// FitTree grows a regression tree on rows X (features) and targets y.
func FitTree(X [][]float64, y []float64, opt TreeOptions) (*RegressionTree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("mlearn: need matching non-empty X (%d) and y (%d)", len(X), len(y))
	}
	opt = opt.withDefaults()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return &RegressionTree{root: growNode(X, y, idx, opt, 0)}, nil
}

func mean(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// sse returns sum of squared errors around the subset mean.
func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	s := 0.0
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func growNode(X [][]float64, y []float64, idx []int, opt TreeOptions, depth int) *treeNode {
	node := &treeNode{value: mean(y, idx), leaf: true}
	if depth >= opt.MaxDepth || len(idx) < 2*opt.MinLeaf {
		return node
	}
	parentSSE := sse(y, idx)
	if parentSSE <= 1e-12 {
		return node
	}
	bestGain := 0.0
	bestFeat := -1
	bestThr := 0.0
	nf := len(X[idx[0]])
	n := len(idx)
	order := make([]int, n)
	for f := 0; f < nf; f++ {
		copy(order, idx)
		fv := f
		sort.Slice(order, func(a, b int) bool { return X[order[a]][fv] < X[order[b]][fv] })
		// Sweep split positions left to right, maintaining running sums;
		// SSE(S) = sum(y²) - (sum y)²/|S|, so each candidate is O(1).
		var sumY, sumY2 float64
		var totY, totY2 float64
		for _, i := range order {
			totY += y[i]
			totY2 += y[i] * y[i]
		}
		for s := 0; s < n-1; s++ {
			i := order[s]
			sumY += y[i]
			sumY2 += y[i] * y[i]
			left := s + 1
			right := n - left
			if left < opt.MinLeaf || right < opt.MinLeaf {
				continue
			}
			v, vNext := X[i][f], X[order[s+1]][f]
			if v == vNext {
				continue // not a boundary between distinct values
			}
			sseL := sumY2 - sumY*sumY/float64(left)
			rY := totY - sumY
			sseR := (totY2 - sumY2) - rY*rY/float64(right)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain, bestFeat, bestThr = gain, f, (v+vNext)/2
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	node.leaf = false
	node.feature = bestFeat
	node.threshold = bestThr
	node.left = growNode(X, y, li, opt, depth+1)
	node.right = growNode(X, y, ri, opt, depth+1)
	return node
}

// Predict evaluates the tree on one row.
func (t *RegressionTree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}
