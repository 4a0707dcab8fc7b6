package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/monitor"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/serve"
	"tracon/internal/sim"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// The probes below time calls into each module's public functions from
// the benchmark's own code, against inputs built the way tracond builds
// them (seed 1 testbed, the eight Table 3 benchmarks, the 125-point
// profiling grid).

// trainingSets are the profiled inputs every model family trains from.
type trainingSets struct {
	benchmarks []workload.Benchmark
	sets       map[string]*model.TrainingSet
	solos      map[string]xen.SoloProfile
}

// newHost builds the default simulated host and its profiling grid.
func newHost() (*xen.Host, []xen.AppSpec, error) {
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		return nil, nil, err
	}
	var bgs []xen.AppSpec
	for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
		bgs = append(bgs, w.Spec)
	}
	return host, bgs, nil
}

// probeTraining times model.profile_s (Profiler.Profile plus ProfileSolo
// for the eight apps) and model.train_s (Library.Add of every app for WMM,
// LM and NLM), and returns the profiles for building libraries.
func probeTraining(res *Result) (*trainingSets, error) {
	host, bgs, err := newHost()
	if err != nil {
		return nil, err
	}
	tb := xen.NewTestbed(host, 3, 0.05, 1)
	prof := &model.Profiler{TB: tb}
	ts := &trainingSets{
		benchmarks: workload.Benchmarks(),
		sets:       map[string]*model.TrainingSet{},
		solos:      map[string]xen.SoloProfile{},
	}
	t0 := time.Now()
	for _, b := range ts.benchmarks {
		set, err := prof.Profile(b.Spec, bgs)
		if err != nil {
			return nil, err
		}
		solo, err := tb.ProfileSolo(b.Spec)
		if err != nil {
			return nil, err
		}
		ts.sets[b.Spec.Name], ts.solos[b.Spec.Name] = set, solo
	}
	res.Set("model.profile_s", time.Since(t0).Seconds(), "s")
	t1 := time.Now()
	for _, k := range []model.Kind{model.WMM, model.LM, model.NLM} {
		if _, err := ts.library(k); err != nil {
			return nil, err
		}
	}
	res.Set("model.train_s", time.Since(t1).Seconds(), "s")
	return ts, nil
}

// library trains one family over the profiles.
func (ts *trainingSets) library(k model.Kind) (*model.Library, error) {
	lib := model.NewLibrary(k)
	for _, b := range ts.benchmarks {
		if err := lib.Add(ts.sets[b.Spec.Name], ts.solos[b.Spec.Name]); err != nil {
			return nil, err
		}
	}
	return lib, nil
}

// probeXen times Host.Steady per call over the profiling grid (8 apps ×
// 125 backgrounds), its allocations per call, and one
// sim.BuildInterferenceTable.
func probeXen(res *Result) error {
	host, bgs, err := newHost()
	if err != nil {
		return err
	}
	var specs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	var perCall []float64
	var allocs float64
	for rep := 0; rep < 3; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		calls := 0
		for _, a := range specs {
			for _, bg := range bgs {
				if _, err := host.Steady([]xen.AppSpec{a, bg}); err != nil {
					return err
				}
				calls++
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		perCall = append(perCall, float64(el)/float64(calls)/1e3)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	}
	res.Set("xen.steady_us", median(perCall), "us")
	res.Set("xen.steady_allocs", allocs, "count")
	t0 := time.Now()
	if _, err := sim.BuildInterferenceTable(host, specs); err != nil {
		return err
	}
	res.Set("xen.table_s", time.Since(t0).Seconds(), "s")
	return nil
}

// probeLayers runs every in-process probe that applies to a serve
// workload.
func probeLayers(w serveWorkload, o options, res *Result) error {
	if err := probeXen(res); err != nil {
		return fmt.Errorf("xen probe: %w", err)
	}
	ts, err := probeTraining(res)
	if err != nil {
		return fmt.Errorf("training probe: %w", err)
	}
	lib, err := ts.library(w.kind)
	if err != nil {
		return err
	}
	if err := probeServe(w, o, lib, res); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if err := probePredict(lib, res); err != nil {
		return fmt.Errorf("model probe: %w", err)
	}
	probeMonitor(o.seed, res)
	if err := probeDurable(filepath.Join(o.tmp, "append"), res); err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	if !w.durable {
		// The daemon keeps no journal, so it has no fsyncs to read.
		if err := probeFsync(filepath.Join(o.tmp, "fsync"), res); err != nil {
			return fmt.Errorf("fsync probe: %w", err)
		}
	}
	return nil
}

// probeTasks is how many tasks each in-process serve stream places; with
// groups of 8 it still gives 1,000 batch calls, enough for a p99.
const probeTasks = 8000

// newProbeServer builds a server configured like the workload's daemon.
func newProbeServer(w serveWorkload, lib *model.Library, dir string) (*serve.Server, func(), error) {
	var mgr *durable.Manager
	if w.durable {
		var err error
		mgr, err = durable.Open(dir, durable.Options{Fsync: durable.FsyncInterval, Now: obs.Wall.Now})
		if err != nil {
			return nil, nil, err
		}
	}
	srv, err := serve.New(lib, serve.Config{
		Machines:  w.machines,
		Policy:    w.policy,
		QueueLen:  w.queueLen,
		Objective: sched.MinRuntime,
		Journal:   mgr,
		Clock:     obs.Wall,
	})
	if err != nil {
		if mgr != nil {
			mgr.Close()
		}
		return nil, nil, err
	}
	closeFn := func() {
		srv.Drain()
		if mgr != nil {
			mgr.Close()
		}
	}
	return srv, closeFn, nil
}

// probeServe times Handler().ServeHTTP with no socket and direct Placer
// calls for the same request stream on a second, identical server.
func probeServe(w serveWorkload, o options, lib *model.Library, res *Result) error {
	rng := rand.New(rand.NewSource(o.seed))
	apps := lib.Apps()
	stream := make([]string, probeTasks)
	for i := range stream {
		stream[i] = apps[rng.Intn(len(apps))]
	}
	group := w.group

	// HTTP handler stream.
	hsrv, hclose, err := newProbeServer(w, lib, filepath.Join(o.tmp, "probe-http"))
	if err != nil {
		return err
	}
	h := hsrv.Handler()
	var httpSubmit, httpComplete []time.Duration
	var httpTotal time.Duration
	for i := 0; i < len(stream); i += group {
		recs, dt, err := httpSubmitGroup(h, stream[i:i+group])
		if err != nil {
			hclose()
			return err
		}
		httpSubmit = append(httpSubmit, dt)
		httpTotal += dt
		for _, rec := range recs {
			dt, err := httpCompleteOne(h, rec)
			if err != nil {
				hclose()
				return err
			}
			httpComplete = append(httpComplete, dt)
			httpTotal += dt
		}
	}
	if err := hsrv.CheckInvariants(); err != nil {
		res.Violate("in-process HTTP server: %v", err)
	}
	hclose()

	// Placer stream: the same tasks through the workload's entry point,
	// then the other entry point for its own latency.
	psrv, pclose, err := newProbeServer(w, lib, filepath.Join(o.tmp, "probe-placer"))
	if err != nil {
		return err
	}
	defer pclose()
	p := psrv.Placer()
	var single, batch, complete []time.Duration
	var placerTotal time.Duration
	submitGroup := func(apps []string, asBatch bool) ([]*serve.Placement, time.Duration, error) {
		t0 := time.Now()
		if !asBatch {
			rec, err := p.Submit(apps[0])
			return []*serve.Placement{rec}, time.Since(t0), err
		}
		outs, err := p.SubmitBatch(apps)
		dt := time.Since(t0)
		if err != nil {
			return nil, dt, err
		}
		recs := make([]*serve.Placement, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				return nil, dt, out.Err
			}
			recs[i] = out.Placement
		}
		return recs, dt, nil
	}
	completeAll := func(recs []*serve.Placement) (time.Duration, error) {
		var sum time.Duration
		for _, rec := range recs {
			if rec.Status != serve.StatusPlaced {
				return sum, fmt.Errorf("task %s is %s, not placed", rec.ID, rec.Status)
			}
			t0 := time.Now()
			_, err := p.Complete(rec.ID)
			dt := time.Since(t0)
			if err != nil {
				return sum, err
			}
			complete = append(complete, dt)
			sum += dt
		}
		return sum, nil
	}
	// The workload's own entry point: singletons on online-small, groups
	// on batch-large-durable. Both record into their own latency list.
	for i := 0; i < len(stream); i += group {
		recs, dt, err := submitGroup(stream[i:i+group], !w.open)
		if err != nil {
			return err
		}
		if w.open {
			single = append(single, dt)
		} else {
			batch = append(batch, dt)
		}
		cdt, err := completeAll(recs)
		if err != nil {
			return err
		}
		placerTotal += dt + cdt
	}
	// The other entry point, 1,000 calls: batches of one on online-small,
	// singletons on batch-large-durable.
	for i := 0; i < 1000; i++ {
		recs, dt, err := submitGroup(stream[i:i+1], w.open)
		if err != nil {
			return err
		}
		if w.open {
			batch = append(batch, dt)
		} else {
			single = append(single, dt)
		}
		if _, err := completeAll(recs); err != nil {
			return err
		}
	}
	if err := psrv.CheckInvariants(); err != nil {
		res.Violate("in-process placer: %v", err)
	}

	us := time.Microsecond
	res.setPercentiles("serve.http_submit_us.p50", "serve.http_submit_us.p99", sortedIn(httpSubmit, us), "us")
	res.setPercentiles("serve.http_complete_us.p50", "serve.http_complete_us.p99", sortedIn(httpComplete, us), "us")
	res.setPercentiles("serve.placer_submit_us.p50", "serve.placer_submit_us.p99", sortedIn(single, us), "us")
	res.setPercentiles("serve.placer_batch_us.p50", "serve.placer_batch_us.p99", sortedIn(batch, us), "us")
	res.setPercentiles("serve.placer_complete_us.p50", "serve.placer_complete_us.p99", sortedIn(complete, us), "us")
	res.Set("serve.http_self_us", float64(httpTotal-placerTotal)/float64(len(stream))/1e3, "us")
	return nil
}

// httpSubmitGroup posts one singleton or batch submission to h and times
// the handler call alone.
func httpSubmitGroup(h http.Handler, apps []string) ([]*serve.Placement, time.Duration, error) {
	var req *http.Request
	if len(apps) == 1 {
		body, _ := json.Marshal(map[string]string{"app": apps[0]})
		req = httptest.NewRequest(http.MethodPost, "/v1/tasks", strings.NewReader(string(body)))
	} else {
		br := serve.BatchRequest{Tasks: make([]serve.BatchTask, len(apps))}
		for i, a := range apps {
			br.Tasks[i].App = a
		}
		body, _ := json.Marshal(br)
		req = httptest.NewRequest(http.MethodPost, "/v1/tasks:batch", strings.NewReader(string(body)))
	}
	rr := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rr, req)
	dt := time.Since(t0)
	if rr.Code != http.StatusOK {
		return nil, dt, fmt.Errorf("submit: HTTP %d: %s", rr.Code, rr.Body.String())
	}
	if len(apps) == 1 {
		var rec serve.Placement
		if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
			return nil, dt, err
		}
		return []*serve.Placement{&rec}, dt, nil
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &br); err != nil {
		return nil, dt, err
	}
	recs := make([]*serve.Placement, len(br.Results))
	for i, r := range br.Results {
		if r.Placement == nil {
			return nil, dt, fmt.Errorf("batch task %d not admitted: %s", i, r.Error)
		}
		recs[i] = r.Placement
	}
	return recs, dt, nil
}

// httpCompleteOne completes a placed task through h with an observation
// equal to the forecast and times the handler call alone.
func httpCompleteOne(h http.Handler, rec *serve.Placement) (time.Duration, error) {
	if rec.Status != serve.StatusPlaced {
		return 0, fmt.Errorf("task %s is %s, not placed", rec.ID, rec.Status)
	}
	body, _ := json.Marshal(serve.Observation{Runtime: rec.PredictedRuntime, IOPS: rec.PredictedIOPS})
	req := httptest.NewRequest(http.MethodPost, "/v1/placements/"+rec.ID+"/complete", strings.NewReader(string(body)))
	rr := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rr, req)
	dt := time.Since(t0)
	if rr.Code != http.StatusOK {
		return dt, fmt.Errorf("complete %s: HTTP %d: %s", rec.ID, rr.Code, rr.Body.String())
	}
	return dt, nil
}

// probePredict times CachingPredictor.PredictRuntime (warm cache) and the
// bare library over every (target, co-runner) pair the workload's apps
// form, the idle co-runner included.
func probePredict(lib *model.Library, res *Result) error {
	cp, err := serve.NewCachingPredictor(lib, serve.NewPredCache(0), 1)
	if err != nil {
		return err
	}
	apps := lib.Apps()
	corunners := append(append([]string(nil), apps...), "")
	timeLoop := func(pred model.Predictor) (float64, error) {
		var per []float64
		for rep := 0; rep < 5; rep++ {
			calls := 0
			t0 := time.Now()
			for r := 0; r < 400; r++ {
				for _, t := range apps {
					for _, c := range corunners {
						if _, err := pred.PredictRuntime(t, c); err != nil {
							return 0, err
						}
						calls++
					}
				}
			}
			per = append(per, float64(time.Since(t0))/float64(calls))
		}
		return median(per), nil
	}
	for _, t := range apps { // fill the cache
		for _, c := range corunners {
			if _, err := cp.PredictRuntime(t, c); err != nil {
				return err
			}
		}
	}
	cached, err := timeLoop(cp)
	if err != nil {
		return err
	}
	bare, err := timeLoop(lib)
	if err != nil {
		return err
	}
	res.Set("model.predict_cached_ns", cached, "ns")
	res.Set("model.predict_uncached_ns", bare, "ns")
	return nil
}

// probeMonitor times Detector.Observe at the default window over a
// stationary error stream (no drift fires).
func probeMonitor(seed int64, res *Result) {
	rng := rand.New(rand.NewSource(seed))
	errs := make([]float64, 4096)
	for i := range errs {
		errs[i] = 0.05 * rng.NormFloat64()
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		d := monitor.NewDetector(monitor.DriftConfig{})
		const calls = 100000
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			d.Observe(errs[i%len(errs)])
		}
		per = append(per, float64(time.Since(t0))/calls)
	}
	res.Set("monitor.observe_ns", median(per), "ns")
}

// probeGroups is how many 8-task groups the append probe journals.
const probeGroups = 250

// probeDurable times Manager.Append of the batch workload's per-group
// event mix under fsync=interval: one batch_admit, one place group, and
// eight single completions. IDs are fixed width and payloads constant, so
// appends and bytes per task repeat exactly.
func probeDurable(dir string, res *Result) error {
	mgr, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncInterval, Now: obs.Wall.Now})
	if err != nil {
		return err
	}
	defer mgr.Close()
	reg := obs.NewRegistry()
	mgr.AttachMetrics(reg)
	var apps []string
	for _, b := range workload.Benchmarks() {
		apps = append(apps, b.Spec.Name)
	}
	bg := make([]float64, model.NumFeatures)
	for i := range bg {
		bg[i] = 0.125 * float64(i+1)
	}
	var lat []time.Duration
	appendTimed := func(evs ...durable.Event) error {
		t0 := time.Now()
		_, err := mgr.Append(evs...)
		lat = append(lat, time.Since(t0))
		return err
	}
	for g := 0; g < probeGroups; g++ {
		admit := durable.Event{Kind: durable.EvBatchAdmit, Machine: -1, Slot: -1}
		var places []durable.Event
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("t-%08d", g*8+i)
			admit.Tasks = append(admit.Tasks, durable.TaskRef{Task: id, App: apps[i%len(apps)], Req: fmt.Sprintf("r-%08d", g)})
			places = append(places, durable.Event{
				Kind: durable.EvPlace, Task: id, App: apps[i%len(apps)], Req: fmt.Sprintf("r-%08d", g),
				Machine: 1000 + i/2, Slot: i % 2, Neighbour: apps[(i+1)%len(apps)],
				PredRT: 123.456, PredIOPS: 789.012, Gen: 1, BG: bg,
			})
		}
		if err := appendTimed(admit); err != nil {
			return err
		}
		if err := appendTimed(places...); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := appendTimed(durable.Event{Kind: durable.EvComplete, Task: fmt.Sprintf("t-%08d", g*8+i), Machine: 1000 + i/2, Slot: i % 2}); err != nil {
				return err
			}
		}
	}
	res.setPercentiles("durable.append_us.p50", "durable.append_us.p99", sortedIn(lat, time.Microsecond), "us")
	tasks := float64(probeGroups * 8)
	res.Set("durable.appends_per_task", reg.Counter("durable.wal_appends").Value()/tasks, "count")
	res.Set("durable.bytes_per_task", reg.Counter("durable.wal_bytes").Value()/tasks, "B")
	return nil
}

// probeFsyncs is how many fsyncs probeFsync times: enough for a p99.
const probeFsyncs = 1000

// probeFsync reports durable.fsync_ms for a workload whose daemon keeps
// no journal: Manager.Sync timed after each appended completion, on a
// journal of the probe's own that never syncs by itself.
func probeFsync(dir string, res *Result) error {
	mgr, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Now: obs.Wall.Now})
	if err != nil {
		return err
	}
	defer mgr.Close()
	lat := make([]time.Duration, 0, probeFsyncs)
	for i := 0; i < probeFsyncs; i++ {
		if _, err := mgr.Append(durable.Event{Kind: durable.EvComplete, Task: fmt.Sprintf("t-%08d", i), Machine: 1000, Slot: i % 2}); err != nil {
			return err
		}
		t0 := time.Now()
		if err := mgr.Sync(); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
	}
	res.setPercentiles("durable.fsync_ms.p50", "durable.fsync_ms.p99", sortedIn(lat, time.Millisecond), "ms")
	return nil
}
