package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracon/internal/mat"
)

func TestTreeFitsStepFunction(t *testing.T) {
	// A step no polynomial matches exactly: y = 10 for x<0.5, 20 otherwise.
	n := 200
	x := mat.New(n, 1)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x.Set(i, 0, v)
		if v < 0.5 {
			y[i] = 10
		} else {
			y[i] = 20
		}
	}
	tree, err := FitTree(x, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0.1}); math.Abs(got-10) > 0.5 {
		t.Fatalf("left side predicts %v", got)
	}
	if got := tree.Predict([]float64{0.9}); math.Abs(got-20) > 0.5 {
		t.Fatalf("right side predicts %v", got)
	}
}

func TestTreeRespectsDepthAndLeafLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.SetRow(i, []float64{rng.Float64(), rng.Float64()})
		y[i] = rng.NormFloat64()
	}
	tree, err := FitTree(x, y, TreeConfig{MaxDepth: 3, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Fatalf("depth %d exceeds limit", d)
	}
}

func TestTreeConstantResponseIsLeaf(t *testing.T) {
	x := mat.NewFromRows([][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}})
	y := []float64{7, 7, 7, 7, 7, 7, 7, 7}
	tree, err := FitTree(x, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Fatalf("constant response grew depth %d", tree.Depth())
	}
	if tree.Predict([]float64{100}) != 7 {
		t.Fatal("leaf value wrong")
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := FitTree(mat.New(1, 1), nil, TreeConfig{}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	tree, err := FitTree(mat.NewFromRows([][]float64{{1}, {2}}), []float64{1, 2}, TreeConfig{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong predict dimensionality did not panic")
		}
	}()
	tree.Predict([]float64{1, 2})
}

func TestForestBeatsSingleTreeOnNoisyCliff(t *testing.T) {
	// A cliff with noise: ensembles should generalize better than one tree.
	gen := func(rng *rand.Rand, n int) (*mat.Matrix, []float64) {
		x := mat.New(n, 2)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := rng.Float64()*10, rng.Float64()*10
			x.SetRow(i, []float64{a, b})
			base := 100.0
			if a > 2 {
				base = 100 / (1 + a - 2)
			}
			y[i] = base + b + rng.NormFloat64()*5
		}
		return x, y
	}
	rng := rand.New(rand.NewSource(3))
	trainX, trainY := gen(rng, 300)
	testX, testY := gen(rng, 300)

	tree, err := FitTree(trainX, trainY, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := FitForest(trainX, trainY, ForestConfig{Trees: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mse := func(pred func([]float64) float64) float64 {
		s := 0.0
		for i := 0; i < testX.Rows(); i++ {
			d := pred(testX.RawRow(i)) - testY[i]
			s += d * d
		}
		return s / float64(testX.Rows())
	}
	if mse(forest.Predict) >= mse(tree.Predict) {
		t.Fatalf("forest MSE %v not below tree MSE %v", mse(forest.Predict), mse(tree.Predict))
	}
}

func TestForestDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := mat.New(100, 3)
	y := make([]float64, 100)
	for i := 0; i < 100; i++ {
		x.SetRow(i, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y[i] = rng.Float64() * 100
	}
	a, err := FitForest(x, y, ForestConfig{Trees: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitForest(x, y, ForestConfig{Trees: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, 0.6, 0.9}
	if a.Predict(q) != b.Predict(q) {
		t.Fatal("same seed, different forests")
	}
	c, err := FitForest(x, y, ForestConfig{Trees: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Predict(q) == c.Predict(q) {
		t.Fatal("different seeds produced identical forests (suspicious)")
	}
}

// Property: predictions never leave the range of the training responses.
func TestTreePredictionInRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		x := mat.New(n, 2)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x.SetRow(i, []float64{rng.NormFloat64(), rng.NormFloat64()})
			y[i] = rng.NormFloat64() * 100
			lo, hi = math.Min(lo, y[i]), math.Max(hi, y[i])
		}
		tree, err := FitTree(x, y, TreeConfig{})
		if err != nil {
			return false
		}
		forest, err := FitForest(x, y, ForestConfig{Trees: 5, Seed: seed})
		if err != nil {
			return false
		}
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		pt, pf := tree.Predict(q), forest.Predict(q)
		return pt >= lo-1e-9 && pt <= hi+1e-9 && pf >= lo-1e-9 && pf <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForestFeatureSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := mat.New(120, 4)
	y := make([]float64, 120)
	for i := 0; i < 120; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		x.SetRow(i, row)
		y[i] = row[0]*10 + row[2]*5
	}
	f, err := FitForest(x, y, ForestConfig{Trees: 30, Seed: 2, FeatureFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 30 {
		t.Fatalf("size %d", f.Size())
	}
	// Still captures the signal reasonably.
	pred := f.Predict([]float64{1, 0, 1, 0})
	if math.Abs(pred-15) > 5 {
		t.Fatalf("prediction %v too far from 15", pred)
	}
}

// profileShapedData mimics a model.Profiler training set: one row per
// background of a 5×5×5 grid (CPU, read rate, write rate, with Dom0 load
// following the I/O) plus eight all-zero solo rows, so feature values tie
// in blocks of 25 and 8, and a cliff-shaped noisy response.
func profileShapedData(rng *rand.Rand) (*mat.Matrix, []float64) {
	levels := []float64{0, 0.25, 0.5, 0.75, 1}
	var rows [][]float64
	var y []float64
	for _, c := range levels {
		for _, r := range levels {
			for _, w := range levels {
				row := []float64{c, 400 * r, 200 * w, 0.3 * (r + w)}
				rows = append(rows, row)
				y = append(y, 100*(1+3*r*r+w+0.2*c)*(1+0.05*rng.NormFloat64()))
			}
		}
	}
	for rep := 0; rep < 8; rep++ {
		rows = append(rows, make([]float64, 4))
		y = append(y, 100*(1+0.05*rng.NormFloat64()))
	}
	return mat.NewFromRows(rows), y
}

// sameTree reports whether two trees have identical shape and bit-identical
// thresholds and leaf values.
func sameTree(a, b *treeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.feature == b.feature &&
		math.Float64bits(a.threshold) == math.Float64bits(b.threshold) &&
		math.Float64bits(a.value) == math.Float64bits(b.value) &&
		sameTree(a.left, b.left) && sameTree(a.right, b.right)
}

// TestForestMatchesReference requires the scratch-reusing split search to
// grow, seed for seed, the same trees as the frozen per-node-allocating
// one, on profile-shaped data and on random data with heavy ties.
func TestForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 24; c++ {
		var x *mat.Matrix
		var y []float64
		if c%2 == 0 {
			x, y = profileShapedData(rng)
		} else {
			n, p := 20+rng.Intn(200), 1+rng.Intn(5)
			x = mat.New(n, p)
			y = make([]float64, n)
			for i := 0; i < n; i++ {
				for j := 0; j < p; j++ {
					x.Set(i, j, float64(rng.Intn(1+c)))
				}
				y[i] = float64(rng.Intn(7)) + rng.Float64()
			}
		}
		cfg := ForestConfig{Trees: 60, Seed: int64(c)}
		if c%3 == 0 {
			cfg.FeatureFraction = 0.6
		}
		if c%4 == 1 {
			cfg.Tree = TreeConfig{MaxDepth: 12, MinLeaf: 1}
		}
		got, err := FitForest(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fitForestReference(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.trees {
			if !sameTree(got.trees[k].root, want.trees[k].root) {
				t.Fatalf("case %d tree %d differs from the reference", c, k)
			}
		}
		for i := 0; i < x.Rows(); i++ {
			q := x.RawRow(i)
			if g, w := got.Predict(q), want.Predict(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("case %d row %d: predict %v, reference %v", c, i, g, w)
			}
		}
	}
}

var benchForest *Forest

// BenchmarkFitForest fits the 60-tree, seed-1 ensemble that model.Forest
// trains per app and response, on a profile-shaped training set.
func BenchmarkFitForest(b *testing.B) {
	x, y := profileShapedData(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := FitForest(x, y, ForestConfig{Trees: 60, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchForest = f
	}
}
