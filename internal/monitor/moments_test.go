package monitor

import (
	"math"
	"math/rand"
	"testing"

	"tracon/internal/stats"
)

// TestWindowMomentsMatchSummarize checks windowMoments bit for bit against
// stats.Summarize on random windows of every size the detector can hold,
// spanning magnitudes, offsets and signs.
func TestWindowMomentsMatchSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		v := make([]float64, 1+rng.Intn(64))
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		offset := (rng.Float64() - 0.5) * 1e3 * float64(rng.Intn(2))
		for i := range v {
			v[i] = offset + scale*rng.NormFloat64()
		}
		mean, variance := windowMoments(v)
		want := stats.Summarize(v)
		if math.Float64bits(mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(variance) != math.Float64bits(want.Variance) {
			t.Fatalf("trial %d (n=%d): moments (%v, %v), Summarize (%v, %v)",
				trial, len(v), mean, variance, want.Mean, want.Variance)
		}
	}
}

// TestObserveMatchesSummarizeReference replays random error streams, some
// with a drift injected part-way, through the detector and through a
// reference that judges each full window with stats.Summarize; every
// decision must agree.
func TestObserveMatchesSummarizeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cfg := DriftConfig{
			Baseline: 5 + rng.Intn(40), Window: 2 + rng.Intn(30),
			MeanShiftSigmas: 1 + 3*rng.Float64(), MinMeanShift: 0.01 + 0.2*rng.Float64(),
			VarianceSurgeFactor: 2 + 10*rng.Float64(),
		}
		d := NewDetector(cfg)
		var base stats.Welford
		var recent []float64
		driftAt := rng.Intn(300)
		for i := 0; i < 300; i++ {
			err := 0.05 * rng.NormFloat64()
			if i >= driftAt {
				err = 0.2 + 0.3*rng.NormFloat64()
			}
			want := false
			if base.N() < cfg.Baseline {
				base.Add(err)
			} else {
				recent = append(recent, err)
				if len(recent) > cfg.Window {
					recent = recent[1:]
				}
				if len(recent) == cfg.Window {
					s := stats.Summarize(recent)
					threshold := math.Max(cfg.MeanShiftSigmas*base.Stddev(), cfg.MinMeanShift)
					bv := base.Variance()
					want = s.Mean-base.Mean() > threshold ||
						(bv > 1e-12 && s.Variance > cfg.VarianceSurgeFactor*bv)
				}
			}
			if got := d.Observe(err); got != want {
				t.Fatalf("trial %d obs %d: Observe = %v, Summarize reference = %v", trial, i, got, want)
			}
		}
	}
}
