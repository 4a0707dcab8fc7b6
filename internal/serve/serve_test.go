package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tracon/internal/model"
	"tracon/internal/monitor"
)

// httpJSON issues one request and decodes the JSON response into out.
func httpJSON(t testing.TB, method, url string, body any, out any) int {
	t.Helper()
	var r io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPPlacementLifecycle(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	app := testLibrary(t, model.NLM).Apps()[0]

	var rec Placement
	if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: app}, &rec); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if rec.Status != StatusPlaced || rec.App != app || rec.ID == "" {
		t.Fatalf("submit response: %+v", rec)
	}
	if rec.PredictedRuntime <= 0 {
		t.Fatalf("no forecast in response: %+v", rec)
	}

	var got Placement
	if code := httpJSON(t, "GET", ts.URL+"/v1/placements/"+rec.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.ID != rec.ID || got.Status != StatusPlaced {
		t.Fatalf("get response: %+v", got)
	}

	var machines []MachineView
	if code := httpJSON(t, "GET", ts.URL+"/v1/machines", nil, &machines); code != http.StatusOK {
		t.Fatalf("machines: status %d", code)
	}
	busy := 0
	for _, m := range machines {
		for _, sl := range m.Slots {
			if sl.State == "busy" {
				busy++
				if sl.Task != rec.ID || sl.App != app {
					t.Fatalf("busy slot disagrees: %+v", sl)
				}
			}
		}
	}
	if busy != 1 {
		t.Fatalf("%d busy slots, want 1", busy)
	}

	var done Placement
	obs := Observation{Runtime: rec.PredictedRuntime, IOPS: rec.PredictedIOPS}
	if code := httpJSON(t, "POST", ts.URL+"/v1/placements/"+rec.ID+"/complete", obs, &done); code != http.StatusOK {
		t.Fatalf("complete: status %d", code)
	}
	if done.Status != StatusCompleted {
		t.Fatalf("complete response: %+v", done)
	}

	// Error mappings on the same surface.
	if code := httpJSON(t, "GET", ts.URL+"/v1/placements/t-999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get unknown: status %d", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/placements/t-999/complete", nil, nil); code != http.StatusNotFound {
		t.Fatalf("complete unknown: status %d", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/placements/"+rec.ID+"/complete", nil, nil); code != http.StatusConflict {
		t.Fatalf("double complete: status %d", code)
	}
	var errResp errorResponse
	if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: "nosuch"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown app: status %d", code)
	}
	if !strings.Contains(errResp.Error, "nosuch") {
		t.Fatalf("unknown-app error does not name the app: %q", errResp.Error)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", map[string]string{}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing app: status %d", code)
	}

	var health map[string]any
	if code := httpJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz body: %+v", health)
	}
	var models modelsResponse
	if code := httpJSON(t, "GET", ts.URL+"/v1/models", nil, &models); code != http.StatusOK {
		t.Fatalf("models: status %d", code)
	}
	if models.Kind != "NLM" || models.Generation != 1 || models.Cache == nil {
		t.Fatalf("models body: %+v", models)
	}
	var metrics json.RawMessage
	if code := httpJSON(t, "GET", ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if !bytes.Contains(metrics, []byte("serve.tasks_submitted")) {
		t.Fatalf("metrics snapshot missing serve counters: %s", metrics)
	}
	if resp, err := http.Get(ts.URL + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}

func TestHTTPEmptyLibraryMapsTo503(t *testing.T) {
	s, err := New(model.NewLibrary(model.NLM), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var errResp errorResponse
	if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: "anything"}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("empty library: status %d (%+v)", code, errResp)
	}
}

func TestHTTPAdmissionBackpressure(t *testing.T) {
	// One machine, queue bound of one: the 3rd submission queues, the 4th
	// must be refused with 429 + Retry-After.
	s := newTestServer(t, model.NLM, Config{Machines: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	app := testLibrary(t, model.NLM).Apps()[0]

	for i := 0; i < 3; i++ {
		if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: app}, nil); code != http.StatusOK {
			t.Fatalf("submission %d: status %d", i, code)
		}
	}
	buf, _ := json.Marshal(submitRequest{App: app})
	resp, err := http.Post(ts.URL+"/v1/tasks", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.admission.Rejected() == 0 {
		t.Fatal("rejection not counted")
	}
}

// The acceptance-criteria race test: at least 8 parallel submitters drive
// the HTTP surface while the model library is hot-swapped underneath them.
// Every request must succeed, no placement may be dropped or corrupted,
// and the final census must reconcile exactly. Run under -race.
func TestHotSwapUnderConcurrentSubmitters(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	lib2 := testLibrary(t, model.LM) // same census, different family
	s, err := New(lib, Config{Machines: 8, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	apps := lib.Apps()

	const (
		workers   = 8
		perWorker = 40
	)
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		failures  atomic.Int64
	)
	stopSwaps := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		next := []*model.Library{lib2, lib}
		for i := 0; ; i++ {
			select {
			case <-stopSwaps:
				return
			default:
			}
			if err := s.ModelSet().Swap(next[i%2]); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				app := apps[(w+i)%len(apps)]
				var rec Placement
				code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: app}, &rec)
				if code != http.StatusOK {
					failures.Add(1)
					t.Errorf("worker %d submit %d: status %d", w, i, code)
					return
				}
				// 8 workers × ≤1 outstanding each on 16 slots: every task
				// must be placed immediately, never queued.
				if rec.Status != StatusPlaced {
					failures.Add(1)
					t.Errorf("worker %d submit %d: status %q", w, i, rec.Status)
					return
				}
				obs := Observation{Runtime: rec.PredictedRuntime, IOPS: rec.PredictedIOPS}
				var done Placement
				code = httpJSON(t, "POST", ts.URL+"/v1/placements/"+rec.ID+"/complete", obs, &done)
				if code != http.StatusOK || done.Status != StatusCompleted {
					failures.Add(1)
					t.Errorf("worker %d complete %d: status %d (%+v)", w, i, code, done)
					return
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stopSwaps)
	swapWG.Wait()
	s.Drain()

	if failures.Load() != 0 {
		t.Fatalf("%d request failures", failures.Load())
	}
	if got, want := completed.Load(), int64(workers*perWorker); got != want {
		t.Fatalf("completed %d of %d tasks", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Placer().FreeSlots(); got != 8*SlotsPerMachine {
		t.Fatalf("%d free slots after full drain, want %d", got, 8*SlotsPerMachine)
	}
	if s.ModelSet().Swaps() == 0 {
		t.Fatal("no hot-swaps actually executed during the run")
	}
}

// Sustained prediction error on completions must fire the drift detector
// and hot-swap in a retrained library without operator involvement.
func TestDriftTriggersHotSwap(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	var retrains atomic.Int64
	s, err := New(lib, Config{
		Machines: 2,
		Retrain: func(recent map[string][]model.Sample) (*model.Library, error) {
			retrains.Add(1)
			if len(recent) == 0 {
				return nil, fmt.Errorf("no observations handed to retrainer")
			}
			return lib, nil
		},
		Drift:       monitor.DriftConfig{Baseline: 10, Window: 5, MinMeanShift: 0.1},
		SyncRetrain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	app := lib.Apps()[0]

	// Feed one completion with a chosen observed/predicted ratio.
	feed := func(ratio float64) {
		var rec Placement
		if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: app}, &rec); code != http.StatusOK {
			t.Fatalf("submit: %d", code)
		}
		obs := Observation{Runtime: rec.PredictedRuntime * ratio, IOPS: rec.PredictedIOPS}
		if code := httpJSON(t, "POST", ts.URL+"/v1/placements/"+rec.ID+"/complete", obs, nil); code != http.StatusOK {
			t.Fatalf("complete: %d", code)
		}
	}
	for i := 0; i < 10; i++ { // baseline: the model is accurate
		feed(1.0)
	}
	if s.ModelSet().Generation() != 1 {
		t.Fatal("swap fired during accurate baseline")
	}
	for i := 0; i < 6; i++ { // drift: reality is 2× the forecast
		feed(2.0)
	}
	if got := s.ModelSet().Generation(); got < 2 {
		t.Fatalf("generation %d after sustained drift, want >= 2", got)
	}
	if retrains.Load() == 0 || s.Swapper().DriftFires() == 0 {
		t.Fatalf("retrains=%d driftFires=%d", retrains.Load(), s.Swapper().DriftFires())
	}
	if s.Swapper().RetrainErrors() != 0 {
		t.Fatalf("retrain errors: %d", s.Swapper().RetrainErrors())
	}
	// The manual path keeps working after an automatic swap.
	var swapResp map[string]uint64
	if code := httpJSON(t, "POST", ts.URL+"/v1/models/swap", nil, &swapResp); code != http.StatusOK {
		t.Fatalf("manual swap: %d", code)
	}
	if swapResp["generation"] < 3 {
		t.Fatalf("manual swap response: %+v", swapResp)
	}
}

// TestOversizeBodiesAre413 sends each body-carrying route a body one past
// its limit (one task's worth for submit and complete, BatchMax tasks'
// worth for a batch) and expects 413 with nothing applied; a body exactly
// at the limit still goes through.
func TestOversizeBodiesAre413(t *testing.T) {
	const batchMax = 4
	s := newTestServer(t, model.NLM, Config{Machines: 2, BatchMax: batchMax})
	h := s.Handler()
	app := testLibrary(t, model.NLM).Apps()[0]
	post := func(path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return w
	}
	// pad grows a JSON object to exactly n bytes with whitespace before its
	// closing brace.
	pad := func(open string, n int) string {
		return open + strings.Repeat(" ", n-len(open)-1) + "}"
	}

	submit := fmt.Sprintf(`{"app":%q`, app)
	if w := post("/v1/tasks", pad(submit, taskBodyBytes)); w.Code != http.StatusOK {
		t.Fatalf("submit body at the limit: status %d: %s", w.Code, w.Body)
	}
	var rec Placement
	if w := post("/v1/tasks", pad(submit, taskBodyBytes)); w.Code != http.StatusOK {
		t.Fatalf("second submit: status %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	before := s.Placer().Snapshot()

	for _, tc := range []struct{ name, path, body string }{
		{"submit", "/v1/tasks", pad(submit, taskBodyBytes+1)},
		{"batch", "/v1/tasks:batch",
			pad(fmt.Sprintf(`{"tasks":[{"app":%q}]`, app), batchMax*taskBodyBytes+1)},
		{"complete", "/v1/placements/" + rec.ID + "/complete",
			pad(`{"runtime_s":1`, taskBodyBytes+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := post(tc.path, tc.body)
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %s", w.Code, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "limit") {
				t.Fatalf("413 body %q (%v)", w.Body, err)
			}
		})
	}
	if after := s.Placer().Snapshot(); after != before {
		t.Fatalf("refused bodies changed the placer: %+v -> %+v", before, after)
	}
	if got, _ := s.Placer().Get(rec.ID); got.Status != StatusPlaced {
		t.Fatalf("refused completion applied: %s is %s", rec.ID, got.Status)
	}
}
