package mlearn

import "math"

// Depth returns the tree's depth (0 for a stump-less single leaf).
func (t *RegressionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	return 1 + int(math.Max(float64(l), float64(r)))
}
