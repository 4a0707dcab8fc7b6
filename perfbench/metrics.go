package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"tracon/internal/obs"
)

// Metric is one reported number, in the shape the result line carries.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result accumulates one run's metrics and its correctness accounting.
type Result struct {
	Attempted  int64
	Failed     int64 // failed or refused operations
	Violations []string
	Metrics    map[string]Metric
	// Notes are human-readable lines printed before the result line
	// (sample counts, supported percentiles, digests).
	Notes []string
}

func newResult() *Result { return &Result{Metrics: map[string]Metric{}} }

// Set records a metric.
func (r *Result) Set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// Violate records one correctness violation.
func (r *Result) Violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Note records one informational line.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Correct reports whether the run saw no violation and no failed
// operation.
func (r *Result) Correct() bool { return len(r.Violations) == 0 && r.Failed == 0 }

// okRatio is 1 − error_rate: the share of attempted operations that
// neither failed, were refused, nor broke a correctness check.
func (r *Result) okRatio() float64 {
	bad := r.Failed + int64(len(r.Violations))
	if r.Attempted <= 0 {
		return 0
	}
	if bad > r.Attempted {
		bad = r.Attempted
	}
	return float64(r.Attempted-bad) / float64(r.Attempted)
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPermille are the candidate tail percentiles in tenths of a percent,
// highest first: p99.9, p99, p90, p50.
var tailPermille = []int{999, 990, 900, 500}

// rankOf is the 1-based nearest rank of the permille-th percentile of n
// samples: ceil(permille·n/1000).
func rankOf(permille, n int) int {
	return (permille*n + 999) / 1000
}

// supports reports whether n samples leave at least minBeyond samples
// above the permille-th percentile.
func supports(permille, n int) bool {
	return n > 0 && n-rankOf(permille, n) >= minBeyond
}

// highestSupported returns the highest candidate percentile (in permille)
// that n samples support, or 0 when even the median is unsupported.
func highestSupported(n int) int {
	for _, p := range tailPermille {
		if supports(p, n) {
			return p
		}
	}
	return 0
}

// percentileName renders a permille as the label used in notes (p99.9).
func percentileName(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprintf("p%d", permille/10)
	}
	return fmt.Sprintf("p%d.%d", permille/10, permille%10)
}

// quantile returns the nearest-rank permille-th percentile of sorted.
func quantile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := rankOf(permille, len(sorted))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// median of xs (mean of the middle pair for even counts); xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reservoir keeps a uniform random sample of at most its capacity of the
// durations offered to it (Vitter's algorithm R), so a run that times
// millions of events holds a bounded, steady amount of memory.
type reservoir struct {
	buf  []time.Duration
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{buf: make([]time.Duration, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(d time.Duration) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = d
	}
}

// sortedIn converts latency samples to the given unit and sorts them.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// setPercentiles reports the p50 and p99 of sorted (already in unit)
// under the two given names; an empty p50Name reports the p99 alone. A p99 needs at least 1,000 samples; with
// fewer the run is invalid, and a violation is recorded instead of a
// number the sample cannot support. The note names the highest supported
// percentile and the sample count.
func (r *Result) setPercentiles(p50Name, p99Name string, sorted []float64, unit string) {
	n := len(sorted)
	if hi := highestSupported(n); hi > 0 {
		r.Note("%s: n=%d, highest supported %s = %.4f %s", p99Name, n, percentileName(hi), quantile(sorted, hi), unit)
	}
	if !supports(990, n) {
		r.Violate("%s: %d samples cannot support p99 (need >= 1000)", p99Name, n)
		return
	}
	if p50Name != "" {
		r.Set(p50Name, quantile(sorted, 500), unit)
	}
	r.Set(p99Name, quantile(sorted, 990), unit)
}

// ratio returns num/den and whether the base is non-empty.
func ratio(num, den float64) (float64, bool) {
	if den <= 0 || math.IsNaN(den) {
		return 0, false
	}
	return num / den, true
}

// perK expresses total per 1,000 units of work.
func perK(total, units float64) (float64, bool) {
	v, ok := ratio(total, units)
	return v * 1000, ok
}

// scrape is one parsed Prometheus exposition sample of the daemon.
type scrape struct {
	at     time.Time
	raw    []byte
	scalar map[string]float64 // unlabeled counters and gauges
}

// parseScrape reads the unlabeled scalar series out of an exposition.
func parseScrape(at time.Time, raw []byte) (scrape, error) {
	s := scrape{at: at, raw: raw, scalar: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return s, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return s, fmt.Errorf("bad exposition value in %q: %w", line, err)
		}
		s.scalar[name] = v
	}
	return s, sc.Err()
}

// histogram extracts one histogram family (sanitized name) from the scrape.
func (s scrape) histogram(name string) (obs.PromHistogram, error) {
	return obs.ParsePrometheusHistogram(bytes.NewReader(s.raw), name, nil)
}

// histDelta returns the snapshot of the observations a histogram took
// between two scrapes.
func histDelta(first, last scrape, name string) (obs.HistogramSnapshot, error) {
	a, err := first.histogram(name)
	if err != nil {
		return obs.HistogramSnapshot{}, err
	}
	b, err := last.histogram(name)
	if err != nil {
		return obs.HistogramSnapshot{}, err
	}
	return b.Sub(a).Snapshot(), nil
}

// scalarDelta is last − first of an unlabeled series.
func scalarDelta(first, last scrape, name string) (float64, bool) {
	a, ok1 := first.scalar[name]
	b, ok2 := last.scalar[name]
	return b - a, ok1 && ok2
}
