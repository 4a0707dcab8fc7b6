package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tracon/internal/serve"
)

// client reads the daemon's state before and after a load phase (apps,
// inventory, health, metrics, spans). The load itself runs on the
// workers' own connections (rawhttp.go).
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) getJSON(path string, out any) error {
	b, err := getBody(c.hc, c.base+path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// apps returns the applications the daemon serves, sorted.
func (c *client) apps() ([]string, error) {
	var m struct {
		Apps []string `json:"apps"`
	}
	if err := c.getJSON("/v1/models", &m); err != nil {
		return nil, err
	}
	if len(m.Apps) == 0 {
		return nil, fmt.Errorf("daemon serves no applications")
	}
	sort.Strings(m.Apps)
	return m.Apps, nil
}

// tracker checks the correctness properties the load generator can see: every
// admitted task completes exactly once, no placement ID repeats, and no
// two in-flight placements share a (machine, vm) slot. The load generator frees a
// slot in its own map just before it sends the completion, so a later
// placement on that slot is legitimate and an earlier one is a
// double-booking.
type tracker struct {
	mu         sync.Mutex
	state      map[string]uint8 // taskAdmitted or taskCompleted
	slots      map[[2]int]string
	violations []string
}

const (
	taskAdmitted  = 1
	taskCompleted = 2
)

func newTracker() *tracker {
	return &tracker{state: map[string]uint8{}, slots: map[[2]int]string{}}
}

func (t *tracker) violate(format string, args ...any) {
	t.violations = append(t.violations, fmt.Sprintf(format, args...))
}

// admitted registers a placement record returned by a submit.
func (t *tracker) admitted(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.state[id]; dup {
		t.violate("duplicate placement ID %s", id)
		return
	}
	t.state[id] = taskAdmitted
}

// placed registers that id occupies (machine, slot).
func (t *tracker) placed(id string, machine, slot int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]int{machine, slot}
	if other, busy := t.slots[k]; busy && other != id {
		t.violate("slot (%d,%d) given to %s while %s still holds it", machine, slot, id, other)
		return
	}
	t.slots[k] = id
}

// releasing frees id's slot before its completion is sent.
func (t *tracker) releasing(id string, machine, slot int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]int{machine, slot}
	if t.slots[k] == id {
		delete(t.slots, k)
	}
}

// completed registers an acknowledged completion.
func (t *tracker) completed(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state[id] {
	case taskAdmitted:
		t.state[id] = taskCompleted
	case taskCompleted:
		t.violate("task %s completed twice", id)
	default:
		t.violate("completion for unknown task %s", id)
	}
}

// finish flags every admitted task that never completed and returns all
// violations seen.
func (t *tracker) finish() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var open []string
	for id, s := range t.state {
		if s != taskCompleted {
			open = append(open, id)
		}
	}
	sort.Strings(open)
	for _, id := range open {
		t.violate("task %s admitted but never completed", id)
	}
	return t.violations
}

// verifyIdle checks the daemon's own view once the load has drained:
// every slot free and the queue empty.
func verifyIdle(c *client, res *Result) {
	var machines []serve.MachineView
	if err := c.getJSON("/v1/machines", &machines); err != nil {
		res.Violate("GET /v1/machines: %v", err)
		return
	}
	busy := 0
	for _, m := range machines {
		for _, s := range m.Slots {
			if s.State != "free" {
				busy++
			}
		}
	}
	if busy > 0 {
		res.Violate("%d slots still busy after the load drained", busy)
	}
	var h struct {
		QueueDepth *int `json:"queue_depth"`
	}
	if err := c.getJSON("/healthz", &h); err != nil {
		res.Violate("GET /healthz: %v", err)
		return
	}
	if h.QueueDepth == nil || *h.QueueDepth != 0 {
		res.Violate("queue not empty after the load drained: %v", h.QueueDepth)
	}
}

// slice is one sub-window of the timed phase: its samples and CPU. The
// timed phase is cut into equal slices; each latency and CPU figure is
// computed per slice and the median reported, so one stall on a shared
// host moves one slice, not the run's number.
type slice struct {
	submit, e2e []time.Duration
	tasks       int64
	daemonCPU   time.Duration
}

// loadRun is what one load phase measured. Latency samples cover only
// the timed phase; attempted and failed cover warm-up too.
type loadRun struct {
	slices             []slice
	lateness           []time.Duration // handed over (open) or sent (closed) − due
	queued             []time.Duration // open loop: sent − due
	service            []time.Duration // open loop: completed − sent
	attempted, failed  atomic.Int64
	completedTimed     int64
	window             time.Duration // timed phase start until its last task completed
	timed              time.Duration // scheduled length of the timed phase
	daemonCPU, selfCPU time.Duration // CPU over the timed phase
	windowStart        time.Time
}

// all returns the samples of every slice together.
func (run *loadRun) all(pick func(*slice) []time.Duration) []time.Duration {
	var out []time.Duration
	for i := range run.slices {
		out = append(out, pick(&run.slices[i])...)
	}
	return out
}

// cpuReading is the daemon's and the load generator's own CPU time at one instant.
type cpuReading struct{ daemon, self time.Duration }

func readCPU(pid int) (cpuReading, error) {
	d, err := cpuTime(pid)
	if err != nil {
		return cpuReading{}, err
	}
	s, err := cpuTime(os.Getpid())
	return cpuReading{d, s}, err
}

// cpuMarks reads CPU at each sub-window boundary on timers, so no worker
// or dispatcher is delayed, and once more when the phase has drained.
type cpuMarks struct {
	pid      int
	readings []cpuReading
	errs     []error
	wg       sync.WaitGroup
}

func markCPU(pid int, start time.Time, timed time.Duration, windows int) *cpuMarks {
	m := &cpuMarks{pid: pid, readings: make([]cpuReading, windows), errs: make([]error, windows)}
	for k := 0; k < windows; k++ {
		k := k
		m.wg.Add(1)
		time.AfterFunc(time.Until(start.Add(timed*time.Duration(k)/time.Duration(windows))), func() {
			defer m.wg.Done()
			m.readings[k], m.errs[k] = readCPU(m.pid)
		})
	}
	return m
}

// finish takes the closing reading and assigns each slice its CPU; the
// last slice runs until the phase drained.
func (m *cpuMarks) finish(run *loadRun) error {
	m.wg.Wait()
	end, err := readCPU(m.pid)
	if err != nil {
		return err
	}
	for _, err := range m.errs {
		if err != nil {
			return err
		}
	}
	readings := append(m.readings, end)
	for k := range run.slices {
		run.slices[k].daemonCPU = readings[k+1].daemon - readings[k].daemon
	}
	run.daemonCPU = end.daemon - readings[0].daemon
	run.selfCPU = end.self - readings[0].self
	return nil
}

// sliceOf maps an offset into the timed phase onto its sub-window.
func sliceOf(off, timed time.Duration, windows int) int {
	k := int(off * time.Duration(windows) / timed)
	if k >= windows {
		k = windows - 1
	}
	return k
}

// arrival is one planned submission of the open loop.
type arrival struct {
	due    time.Duration // offset from the schedule start
	app    string
	factor float64 // observed/predicted runtime reported on completion
}

// obsFactor draws the multiplicative noise reported on completion: the
// drift detector sees a stationary error stream and never fires.
func obsFactor(rng *rand.Rand) float64 {
	f := 1 + 0.05*rng.NormFloat64()
	if f < 0.1 {
		f = 0.1
	}
	return f
}

// poissonSchedule draws arrivals at rate per second over span from seed.
func poissonSchedule(seed int64, rate float64, span time.Duration, apps []string) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		out = append(out, arrival{due: due, app: apps[rng.Intn(len(apps))], factor: obsFactor(rng)})
	}
}

// workerStats carries one goroutine's samples; merged after the phase.
type workerStats struct {
	slices                    []slice
	lateness, queued, service []time.Duration
	lastDone                  time.Time
}

func newWorkerStats(workers, windows int) []workerStats {
	ws := make([]workerStats, workers)
	for i := range ws {
		ws[i].slices = make([]slice, windows)
	}
	return ws
}

// record files one timed task under its sub-window.
func (ws *workerStats) record(k int, submit time.Duration, e2e ...time.Duration) {
	sl := &ws.slices[k]
	sl.submit = append(sl.submit, submit)
	sl.e2e = append(sl.e2e, e2e...)
	sl.tasks += int64(len(e2e))
}

// openLoop sends the Poisson schedule regardless of how fast the daemon
// answers. conns workers share the pool; each takes the next due
// arrival, submits it, and completes it as soon as it is acknowledged.
// Latencies are timed from the arrival's due time, so time spent waiting
// for a free connection counts; lateness is how late the generator handed
// the arrival over.
func openLoop(addr string, tr *tracker, pid int, sched []arrival, warm, timed time.Duration, windows, conns int) (*loadRun, error) {
	hs, err := dialAll(addr, conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(hs)
	run := &loadRun{slices: make([]slice, windows), timed: timed}
	start := time.Now().Add(5 * time.Millisecond)
	run.windowStart = start.Add(warm)
	marks := markCPU(pid, run.windowStart, timed, windows)
	dispatched := make([]time.Time, len(sched))
	// Buffered for every arrival, so the dispatcher never blocks on slow
	// workers and the schedule stays open loop.
	work := make(chan int, len(sched))
	stats := newWorkerStats(conns, windows)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(h *httpConn, ws *workerStats) {
			defer wg.Done()
			for i := range work {
				a := sched[i]
				due := start.Add(a.due)
				sent := time.Now()
				ack, done, ok := runTask(h, tr, run, a.app, a.factor)
				if !ok || a.due < warm {
					continue
				}
				ws.record(sliceOf(a.due-warm, timed, windows), ack.Sub(due), done.Sub(due))
				ws.lateness = append(ws.lateness, dispatched[i].Sub(due))
				ws.queued = append(ws.queued, sent.Sub(due))
				ws.service = append(ws.service, done.Sub(sent))
				if done.After(ws.lastDone) {
					ws.lastDone = done
				}
			}
		}(hs[w], &stats[w])
	}
	for i, a := range sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		dispatched[i] = time.Now()
		work <- i
	}
	close(work)
	wg.Wait()
	return run, run.merge(stats, marks)
}

// closedBatch runs clients closed-loop workers: each posts a group of
// size tasks to /v1/tasks:batch and completes all of them before sending
// the next group. The timed phase covers groups started after warm;
// latencies are timed from the group's submission, and lateness from the
// acknowledgement that ended the client's previous group.
func closedBatch(addr string, tr *tracker, pid int, seed int64, apps []string, clients, size int, warm, timed time.Duration, windows int) (*loadRun, error) {
	hs, err := dialAll(addr, clients)
	if err != nil {
		return nil, err
	}
	defer closeAll(hs)
	run := &loadRun{slices: make([]slice, windows), timed: timed}
	start := time.Now()
	warmEnd, end := start.Add(warm), start.Add(warm+timed)
	run.windowStart = warmEnd
	marks := markCPU(pid, warmEnd, timed, windows)
	stats := newWorkerStats(clients, windows)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int, h *httpConn, ws *workerStats) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(w)))
			// A client's next group is due when the last task of its
			// previous group was acknowledged.
			due := start
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				group := make([]string, size)
				factors := make([]float64, size)
				for i := range group {
					group[i] = apps[rng.Intn(len(apps))]
					factors[i] = obsFactor(rng)
				}
				ack, dones := runBatch(h, tr, run, group, factors)
				late := t0.Sub(due)
				if due = time.Now(); dones != nil {
					due = dones[len(dones)-1]
				}
				if t0.Before(warmEnd) || dones == nil {
					continue
				}
				ws.lateness = append(ws.lateness, late)
				e2e := make([]time.Duration, len(dones))
				for i, d := range dones {
					e2e[i] = d.Sub(t0)
					if d.After(ws.lastDone) {
						ws.lastDone = d
					}
				}
				ws.record(sliceOf(t0.Sub(warmEnd), timed, windows), ack.Sub(t0), e2e...)
			}
		}(w, hs[w], &stats[w])
	}
	wg.Wait()
	return run, run.merge(stats, marks)
}

// dialAll opens one connection per worker.
func dialAll(addr string, n int) ([]*httpConn, error) {
	hs := make([]*httpConn, n)
	for i := range hs {
		h, err := dialHTTP(addr)
		if err != nil {
			closeAll(hs[:i])
			return nil, err
		}
		hs[i] = h
	}
	return hs, nil
}

func closeAll(hs []*httpConn) {
	for _, h := range hs {
		h.close()
	}
}

// merge folds the workers' samples into the run and closes the CPU marks.
func (run *loadRun) merge(stats []workerStats, marks *cpuMarks) error {
	var last time.Time
	for _, ws := range stats {
		for k := range ws.slices {
			sl, w := &run.slices[k], &ws.slices[k]
			sl.submit = append(sl.submit, w.submit...)
			sl.e2e = append(sl.e2e, w.e2e...)
			sl.tasks += w.tasks
			run.completedTimed += w.tasks
		}
		run.lateness = append(run.lateness, ws.lateness...)
		run.queued = append(run.queued, ws.queued...)
		run.service = append(run.service, ws.service...)
		if ws.lastDone.After(last) {
			last = ws.lastDone
		}
	}
	run.window = last.Sub(run.windowStart)
	return marks.finish(run)
}

// placement is the part of a placement record the load generator reads.
type placement struct {
	ID               string  `json:"id"`
	Status           string  `json:"status"`
	Machine          int     `json:"machine"`
	Slot             int     `json:"slot"`
	PredictedRuntime float64 `json:"predicted_runtime_s"`
	PredictedIOPS    float64 `json:"predicted_iops"`
}

// runTask submits one task, waits for its placement if the daemon queued
// it, and completes it. ok is false when any step failed.
func runTask(h *httpConn, tr *tracker, run *loadRun, app string, factor float64) (ack, done time.Time, ok bool) {
	run.attempted.Add(1)
	body, _ := json.Marshal(serve.BatchTask{App: app})
	var rec placement
	code, err := h.call("POST", "/v1/tasks", body, &rec)
	ack = time.Now()
	if err != nil || code != http.StatusOK {
		run.failed.Add(1)
		return ack, ack, false
	}
	tr.admitted(rec.ID)
	if !finishTask(h, tr, &rec, factor) {
		run.failed.Add(1)
		return ack, ack, false
	}
	return ack, time.Now(), true
}

// runBatch submits one group and completes every admitted task in order.
// dones holds each task's completion acknowledgement time; it is nil when
// any task failed.
func runBatch(h *httpConn, tr *tracker, run *loadRun, apps []string, factors []float64) (ack time.Time, dones []time.Time) {
	run.attempted.Add(int64(len(apps)))
	req := serve.BatchRequest{Tasks: make([]serve.BatchTask, len(apps))}
	for i, a := range apps {
		req.Tasks[i].App = a
	}
	body, _ := json.Marshal(req)
	var br struct {
		Results []struct {
			Placement *placement `json:"placement"`
		} `json:"results"`
	}
	code, err := h.call("POST", "/v1/tasks:batch", body, &br)
	ack = time.Now()
	if err != nil || code != http.StatusOK || len(br.Results) != len(apps) {
		run.failed.Add(int64(len(apps)))
		return ack, nil
	}
	failed := false
	for _, r := range br.Results {
		if r.Placement == nil {
			run.failed.Add(1)
			failed = true
			continue
		}
		tr.admitted(r.Placement.ID)
	}
	for i, r := range br.Results {
		if r.Placement == nil {
			continue
		}
		if !finishTask(h, tr, r.Placement, factors[i]) {
			run.failed.Add(1)
			failed = true
			continue
		}
		dones = append(dones, time.Now())
	}
	if failed {
		return ack, nil
	}
	return ack, dones
}

// finishTask waits out the queue if the daemon parked the task, checks
// its slot, and completes it with an observation of factor × the forecast.
func finishTask(h *httpConn, tr *tracker, rec *placement, factor float64) bool {
	if rec.Status == serve.StatusQueued {
		if rec = awaitPlaced(h, rec.ID); rec == nil {
			return false
		}
	}
	if rec.Status != serve.StatusPlaced {
		return false
	}
	tr.placed(rec.ID, rec.Machine, rec.Slot)
	body, _ := json.Marshal(serve.Observation{
		Runtime: rec.PredictedRuntime * factor,
		IOPS:    rec.PredictedIOPS / factor,
	})
	tr.releasing(rec.ID, rec.Machine, rec.Slot)
	var out placement
	code, err := h.call("POST", "/v1/placements/"+rec.ID+"/complete", body, &out)
	if err != nil || code != http.StatusOK {
		return false
	}
	if out.ID != rec.ID || out.Status != serve.StatusCompleted {
		return false
	}
	tr.completed(rec.ID)
	return true
}

// awaitPlaced polls a queued task until it is placed; nil on failure.
func awaitPlaced(h *httpConn, id string) *placement {
	sleep := 100 * time.Microsecond
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var rec placement
		if code, err := h.call("GET", "/v1/placements/"+id, nil, &rec); err != nil || code != http.StatusOK {
			return nil
		}
		switch rec.Status {
		case serve.StatusPlaced:
			return &rec
		case serve.StatusFailed, serve.StatusCompleted:
			return nil
		}
		time.Sleep(sleep)
		if sleep < 2*time.Millisecond {
			sleep *= 2
		}
	}
	return nil
}
