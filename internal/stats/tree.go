package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"tracon/internal/mat"
)

// CART regression trees and a bagged forest. The paper's future work asks
// for "different modeling techniques to build a more accurate model"; a
// tree ensemble is the natural candidate: it handles the cliff-shaped
// interference response (a handful of competing random requests already
// costs whole seeks) that polynomials smooth over, at the price of more
// training data appetite and less interpretability.

// TreeConfig bounds a regression tree.
type TreeConfig struct {
	// MaxDepth limits the tree height (default 6).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 3).
	MinLeaf int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 3
	}
	return c
}

// treeNode is one node of a fitted tree.
type treeNode struct {
	feature   int // split feature (-1 for a leaf)
	threshold float64
	value     float64 // leaf prediction (mean of its samples)
	left      *treeNode
	right     *treeNode
}

// RegressionTree is a fitted CART regression tree.
type RegressionTree struct {
	root *treeNode
	p    int // input dimensionality
}

// FitTree grows a regression tree on (x, y) by greedy variance-reducing
// binary splits.
func FitTree(x *mat.Matrix, y []float64, cfg TreeConfig) (*RegressionTree, error) {
	n, p := x.Dims()
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("stats: tree needs matching non-empty x and y")
	}
	cfg = cfg.withDefaults()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t := &RegressionTree{p: p}
	t.root = growTree(x, y, idx, cfg, 0, allFeatures(p), newSplitScratch(n))
	return t, nil
}

// allFeatures lists every feature index of a p-column input.
func allFeatures(p int) []int {
	features := make([]int, p)
	for j := range features {
		features[j] = j
	}
	return features
}

// growTree recursively builds nodes. features lists the candidate split
// features, which the forest may subsample for decorrelation. sc is the
// split workspace, sized for the root.
func growTree(x *mat.Matrix, y []float64, idx []int, cfg TreeConfig, depth int, features []int, sc *splitScratch) *treeNode {
	node := &treeNode{feature: -1, value: meanAt(y, idx)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return node
	}
	bestFeature, bestThr, bestGain := -1, 0.0, 0.0
	baseSSE := sseAt(y, idx)
	for _, j := range features {
		f, thr, gain := bestSplit(x, y, idx, j, cfg.MinLeaf, baseSSE, sc)
		if f && gain > bestGain+1e-12 {
			bestFeature, bestThr, bestGain = j, thr, gain
		}
	}
	if bestFeature < 0 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if x.At(i, bestFeature) <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	node.feature = bestFeature
	node.threshold = bestThr
	node.left = growTree(x, y, left, cfg, depth+1, features, sc)
	node.right = growTree(x, y, right, cfg, depth+1, features, sc)
	return node
}

// splitPoint is one sample seen along a candidate feature.
type splitPoint struct{ v, y float64 }

// splitScratch is bestSplit's workspace, sized for a root node's sample
// count and reused by every node of every tree one fit grows (each forest
// member draws as many bootstrap samples as the input has rows).
type splitScratch struct {
	pts        []splitPoint
	sum, sumsq []float64
}

func newSplitScratch(n int) *splitScratch {
	return &splitScratch{
		pts:   make([]splitPoint, n),
		sum:   make([]float64, n+1),
		sumsq: make([]float64, n+1),
	}
}

// cmpSplitPoint orders points by feature value. slices.SortFunc runs the
// same pdqsort as sort.Slice, so ties keep the permutation (and the prefix
// sums below their bits) that sort.Slice gave.
func cmpSplitPoint(a, b splitPoint) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// bestSplit scans feature j for the threshold with maximum SSE reduction.
func bestSplit(x *mat.Matrix, y []float64, idx []int, j, minLeaf int, baseSSE float64, sc *splitScratch) (ok bool, thr, gain float64) {
	n := len(idx)
	pts := sc.pts[:n]
	for k, i := range idx {
		pts[k] = splitPoint{x.At(i, j), y[i]}
	}
	slices.SortFunc(pts, cmpSplitPoint)

	// Prefix sums for O(1) left/right SSE at every cut.
	sum, sumsq := sc.sum[:n+1], sc.sumsq[:n+1]
	for k, p := range pts {
		sum[k+1] = sum[k] + p.y
		sumsq[k+1] = sumsq[k] + p.y*p.y
	}
	sseRange := func(lo, hi int) float64 { // [lo, hi)
		cnt := float64(hi - lo)
		if cnt == 0 {
			return 0
		}
		s := sum[hi] - sum[lo]
		sq := sumsq[hi] - sumsq[lo]
		return sq - s*s/cnt
	}
	best := -1.0
	for cut := minLeaf; cut <= n-minLeaf; cut++ {
		if pts[cut-1].v == pts[cut].v {
			continue // no threshold separates equal values
		}
		g := baseSSE - sseRange(0, cut) - sseRange(cut, n)
		if g > best {
			best = g
			thr = (pts[cut-1].v + pts[cut].v) / 2
		}
	}
	if best <= 0 {
		return false, 0, 0
	}
	return true, thr, best
}

// Predict evaluates the tree on one input.
func (t *RegressionTree) Predict(x []float64) float64 {
	if len(x) != t.p {
		panic(mat.ErrShape)
	}
	node := t.root
	for node.feature >= 0 {
		if x[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.value
}

// Depth returns the height of the tree (0 for a lone leaf).
func (t *RegressionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// ForestConfig bounds a bagged regression forest.
type ForestConfig struct {
	// Trees is the ensemble size (default 40).
	Trees int
	// Tree bounds each member.
	Tree TreeConfig
	// Seed fixes the bootstrap and feature sampling.
	Seed int64
	// FeatureFraction of features considered per tree (default 1: bagging
	// only; lower it toward 0.6 for random-forest-style decorrelation).
	FeatureFraction float64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 40
	}
	if c.FeatureFraction <= 0 || c.FeatureFraction > 1 {
		c.FeatureFraction = 1
	}
	c.Tree = c.Tree.withDefaults()
	return c
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	trees []*RegressionTree
}

// FitForest trains the ensemble on bootstrap resamples of (x, y).
func FitForest(x *mat.Matrix, y []float64, cfg ForestConfig) (*Forest, error) {
	n, p := x.Dims()
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("stats: forest needs matching non-empty x and y")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	nFeat := int(cfg.FeatureFraction*float64(p) + 0.5)
	if nFeat < 1 {
		nFeat = 1
	}
	all := allFeatures(p)
	sc := newSplitScratch(n)
	for b := 0; b < cfg.Trees; b++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		features := all
		if nFeat < p {
			perm := rng.Perm(p)
			features = append([]int(nil), perm[:nFeat]...)
			sort.Ints(features)
		}
		tree := &RegressionTree{p: p}
		tree.root = growTree(x, y, idx, cfg.Tree, 0, features, sc)
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// Predict returns the ensemble mean.
func (f *Forest) Predict(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// Size returns the number of member trees.
func (f *Forest) Size() int { return len(f.trees) }

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sseAt(y []float64, idx []int) float64 {
	m := meanAt(y, idx)
	s := 0.0
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}
