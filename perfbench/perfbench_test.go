package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tracon/internal/obs"
)

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900},
		{999, 900}, {1000, 990}, {9999, 990}, {10000, 999}, {50000, 999},
	}
	for _, c := range cases {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if percentileName(999) != "p99.9" || percentileName(990) != "p99" {
		t.Errorf("percentile names: %s %s", percentileName(999), percentileName(990))
	}
}

func TestNearestRankQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 500); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 990); got != 990 {
		t.Errorf("p99 = %v, want 990 (10 samples beyond it)", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSetPercentilesNeedsThousandSamplesForP99(t *testing.T) {
	res := newResult()
	res.setPercentiles("a.p50", "a.p99", make([]float64, 999), "ms")
	if _, ok := res.Metrics["a.p99"]; ok || len(res.Violations) != 1 {
		t.Fatalf("999 samples must not yield a p99: metrics %v, violations %v", res.Metrics, res.Violations)
	}
	res = newResult()
	res.setPercentiles("a.p50", "a.p99", make([]float64, 1000), "ms")
	if _, ok := res.Metrics["a.p99"]; !ok || len(res.Violations) != 0 {
		t.Fatalf("1000 samples must yield a p99: metrics %v, violations %v", res.Metrics, res.Violations)
	}
}

// exposition renders a registry the way the daemon's /metrics does.
func exposition(t *testing.T, reg *obs.Registry, at time.Time) scrape {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s, err := parseScrape(at, b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHistogramDeltaBetweenScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("serve.decision_seconds", obs.DefaultLatencyBuckets())
	reg.Counter("serve.tasks_completed").Add(7)
	for i := 0; i < 100; i++ {
		h.Observe(1) // before the window: must not leak into the delta
	}
	first := exposition(t, reg, time.Now())
	for i := 0; i < 1000; i++ {
		h.Observe(20e-6)
	}
	reg.Counter("serve.tasks_completed").Add(1000)
	last := exposition(t, reg, time.Now())

	d, err := histDelta(first, last, "serve_decision_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 1000 {
		t.Fatalf("delta holds %d observations, want 1000", d.N)
	}
	if p99 := d.Quantile(0.99); p99 < 10e-6 || p99 > 40e-6 {
		t.Errorf("delta p99 = %v, want within the 20us bucket", p99)
	}
	if n, ok := scalarDelta(first, last, "serve_tasks_completed"); !ok || n != 1000 {
		t.Errorf("counter delta = %v (%v), want 1000", n, ok)
	}
}

func TestRatioBases(t *testing.T) {
	if _, ok := ratio(0, 0); ok {
		t.Error("an empty base must not yield a ratio")
	}
	if v, ok := ratio(3, 4); !ok || v != 0.75 {
		t.Errorf("ratio(3,4) = %v %v", v, ok)
	}
	if v, ok := perK(250, 2000); !ok || v != 125 {
		t.Errorf("perK(250 ms, 2000 tasks) = %v, want 125 ms per 1k tasks", v)
	}
	res := newResult()
	res.Attempted, res.Failed = 1000, 2
	res.Violate("one")
	if got := res.okRatio(); math.Abs(got-0.997) > 1e-12 {
		t.Errorf("okRatio = %v, want 0.997 over 1000 attempted", got)
	}
}

func TestTrackerDetectsViolations(t *testing.T) {
	tr := newTracker()
	tr.admitted("t-1")
	tr.placed("t-1", 0, 0)
	tr.releasing("t-1", 0, 0)
	tr.completed("t-1")
	tr.admitted("t-2")
	tr.placed("t-2", 0, 0) // legitimate: t-1 released the slot first
	tr.releasing("t-2", 0, 0)
	tr.completed("t-2")
	if v := tr.finish(); len(v) != 0 {
		t.Fatalf("clean lifecycle flagged: %v", v)
	}

	cases := map[string]func(tr *tracker){
		"completed twice": func(tr *tracker) {
			tr.admitted("t-1")
			tr.completed("t-1")
			tr.completed("t-1")
		},
		"duplicate placement ID": func(tr *tracker) {
			tr.admitted("t-1")
			tr.admitted("t-1")
			tr.completed("t-1")
		},
		"while": func(tr *tracker) { // two in-flight tasks on one slot
			tr.admitted("t-1")
			tr.admitted("t-2")
			tr.placed("t-1", 3, 1)
			tr.placed("t-2", 3, 1)
			tr.completed("t-1")
			tr.completed("t-2")
		},
		"never completed": func(tr *tracker) { tr.admitted("t-1") },
		"unknown task":    func(tr *tracker) { tr.completed("t-9") },
	}
	for want, inject := range cases {
		tr := newTracker()
		inject(tr)
		v := tr.finish()
		if len(v) != 1 || !strings.Contains(v[0], want) {
			t.Errorf("%s: violations %v", want, v)
		}
	}
}

func TestFig9DigestMismatchIsDetected(t *testing.T) {
	want, err := referenceDigest(1)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	checkFig9(res, "64,light,2,MIBS8,100,1.01\n", want, 1)
	if len(res.Violations) != 1 {
		t.Fatalf("tampered rows passed the digest check")
	}
	if _, err := referenceDigest(envSeeds + 1); err == nil {
		t.Error("a seed without a reference digest must be refused")
	}
	for _, s := range []int64{-9, -1, 0, 1, 7, 8, 1 << 40} {
		if e := envSeedFor(s); e < 1 || e > envSeeds {
			t.Errorf("envSeedFor(%d) = %d, outside 1..%d", s, e, envSeeds)
		}
	}
}

func TestPlanFirstTry(t *testing.T) {
	ndjson := `{"kind":"run","schema":3}
{"seq":0,"t":0.1,"k":"plan_commit","serve":{"m":-1,"s":-1}}
{"seq":1,"t":0.1,"k":"batch_pass","serve":{"m":-1,"s":-1}}
{"seq":2,"t":0.2,"k":"plan_retry","serve":{"m":-1,"s":-1}}
{"seq":3,"t":0.2,"k":"plan_commit","serve":{"m":-1,"s":-1}}
{"seq":4,"t":0.2,"k":"batch_pass","serve":{"m":-1,"s":-1}}
{"seq":5,"t":0.3,"k":"batch_pass","serve":{"m":-1,"s":-1}}
{"seq":6,"t":0.4,"k":"batch_pass","serve":{"m":-1,"s":-1}}
`
	v, base, err := planFirstTry([]byte(ndjson))
	if err != nil || base != 4 || v != 0.75 {
		t.Fatalf("planFirstTry = %v over %d (%v), want 0.75 over 4", v, base, err)
	}
	if _, _, err := planFirstTry([]byte(`{"kind":"run"}` + "\n")); err == nil {
		t.Error("a ring without batch passes must not yield a ratio")
	}
}

func TestGCWindowAlignsWithSamplerTicks(t *testing.T) {
	t0 := time.Now()
	mk := func(ms int, heap, gc, done float64) scrape {
		return scrape{at: t0.Add(time.Duration(ms) * time.Millisecond), scalar: map[string]float64{
			"runtime_heap_alloc_bytes": heap, "runtime_gc_runs": gc, "serve_tasks_completed": done,
		}}
	}
	ss := []scrape{
		mk(0, 1, 10, 0),      // before the window
		mk(100, 2, 11, 100),  // tick before the window start: ignored
		mk(1100, 2, 11, 900), // window starts at 1000ms; no tick
		mk(1200, 3, 14, 1000),
		mk(3000, 3, 14, 3000),
		mk(6200, 4, 20, 6000),
		mk(6300, 4, 20, 6100),
	}
	gc, done, ok := gcWindow(ss, t0.Add(time.Second))
	if !ok || gc != 6 || done != 5000 {
		t.Fatalf("gcWindow = %v GCs over %v tasks (%v), want 6 over 5000", gc, done, ok)
	}
}

func TestCPUAndRSSFromProc(t *testing.T) {
	if _, err := cpuTime(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if mb, err := vmHWM(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("vmHWM = %v, %v", mb, err)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names, units and
// directions in BENCHMARK.json and in the code in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, e := range spec.EndToEnd {
		e2e = append(e2e, e.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndNames, ",") {
		t.Errorf("end_to_end %v, code reports %v", e2e, endToEndNames)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer has %d entries, code has %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, e := range spec.PerLayer {
		l := layerMetrics[i]
		if e.Name != l.name || e.Unit != l.unit || e.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, code has %s %s %s", i, e, l.name, l.unit, l.better)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "online-small,batch-large-durable,sim-fig9" {
		t.Errorf("workloads %v", names)
	}
}

func TestRawHTTPClient(t *testing.T) {
	big := strings.Repeat("x", 5000) // beyond net/http's buffer: sent chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/echo":
			w.Write(body)
		case "/big":
			w.Write([]byte(big))
		case "/close":
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusConflict)
		}
	}))
	defer srv.Close()
	h, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for i := 0; i < 3; i++ {
		if code, body, err := h.do("POST", "/echo", []byte(`{"app":"grep"}`)); err != nil || code != 200 || string(body) != `{"app":"grep"}` {
			t.Fatalf("echo: %d %q %v", code, body, err)
		}
		if code, body, err := h.do("GET", "/big", nil); err != nil || code != 200 || string(body) != big {
			t.Fatalf("chunked: %d, %d bytes, %v", code, len(body), err)
		}
		if code, _, err := h.do("POST", "/close", nil); err != nil || code != http.StatusConflict {
			t.Fatalf("close: %d %v", code, err)
		}
	}
}
