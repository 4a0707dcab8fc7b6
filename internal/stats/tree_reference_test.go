package stats

import (
	"fmt"
	"math/rand"
	"sort"

	"tracon/internal/mat"
)

// The tree grower as it stood before bestSplit reused one scratch per fit:
// fresh slices at every node × feature and sort.Slice. Frozen so that
// TestForestMatchesReference can require the current code to grow the same
// trees bit for bit. Do not optimise it.

// fitForestReference is FitForest over growTreeReference.
func fitForestReference(x *mat.Matrix, y []float64, cfg ForestConfig) (*Forest, error) {
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
	for b := 0; b < cfg.Trees; b++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		var features []int
		if nFeat < p {
			perm := rng.Perm(p)
			features = append([]int(nil), perm[:nFeat]...)
			sort.Ints(features)
		}
		tree := &RegressionTree{p: p}
		tree.root = growTreeReference(x, y, idx, cfg.Tree, 0, features)
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// growTreeReference is the frozen growTree.
func growTreeReference(x *mat.Matrix, y []float64, idx []int, cfg TreeConfig, depth int, features []int) *treeNode {
	node := &treeNode{feature: -1, value: meanAt(y, idx)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return node
	}
	bestFeature, bestThr, bestGain := -1, 0.0, 0.0
	baseSSE := sseAt(y, idx)
	cand := features
	if cand == nil {
		cand = make([]int, x.Cols())
		for j := range cand {
			cand[j] = j
		}
	}
	for _, j := range cand {
		f, thr, gain := bestSplitReference(x, y, idx, j, cfg.MinLeaf, baseSSE)
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
	node.left = growTreeReference(x, y, left, cfg, depth+1, features)
	node.right = growTreeReference(x, y, right, cfg, depth+1, features)
	return node
}

// bestSplitReference is the frozen bestSplit.
func bestSplitReference(x *mat.Matrix, y []float64, idx []int, j, minLeaf int, baseSSE float64) (ok bool, thr, gain float64) {
	type pair struct{ v, y float64 }
	pts := make([]pair, len(idx))
	for k, i := range idx {
		pts[k] = pair{x.At(i, j), y[i]}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].v < pts[b].v })

	// Prefix sums for O(1) left/right SSE at every cut.
	n := len(pts)
	sum, sumsq := make([]float64, n+1), make([]float64, n+1)
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
