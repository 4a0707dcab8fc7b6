package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tracon/internal/model"
	"tracon/internal/obs"
)

// onlineRate is the open-loop arrival rate of online-small in tasks/s:
// about half the closed-loop capacity of a 2-core host (two workers
// submitting and completing singletons back to back).
const onlineRate = 3000

// warmUp is the load burst discarded before every timed phase.
const warmUp = time.Second

// subWindows is how many equal slices the timed phase is cut into.
const subWindows = 15

// setupBoots is how many times a serve workload boots the daemon; setup_s
// is the median, and the last boot serves the load.
const setupBoots = 3

// serveWorkload describes one daemon workload.
type serveWorkload struct {
	name     string
	flags    []string // tracond flags, data directory excluded
	durable  bool     // add -data-dir in the run's temp area
	open     bool     // open-loop singletons at onlineRate; else closed batches
	clients  int      // closed loop: concurrent clients
	group    int      // closed loop: tasks per /v1/tasks:batch request
	machines int
	policy   string
	queueLen int
	kind     model.Kind
}

var onlineSmall = serveWorkload{
	name:     "online-small",
	flags:    []string{"-machines", "8", "-policy", "mios", "-model", "NLM"},
	open:     true,
	group:    1,
	machines: 8, policy: "mios", queueLen: 4, kind: model.NLM,
}

var batchLargeDurable = serveWorkload{
	name:     "batch-large-durable",
	flags:    []string{"-machines", "4096", "-policy", "mibs", "-queue-len", "8", "-model", "Forest", "-fsync", "interval"},
	durable:  true,
	clients:  2,
	group:    8,
	machines: 4096, policy: "mibs", queueLen: 8, kind: model.Forest,
}

// stealRetryPct is the host CPU steal above which an untraced load phase
// is run again. On the 2-vCPU virtual machine the bounds were set on, a
// phase saw 0.4–2.5% normally and 4–13% while a neighbour was busy.
const stealRetryPct = 3

// obsOffFlags turn off every observability feature tracond can disable.
var obsOffFlags = []string{"-trace-cap=-1", "-stats-interval=-1s", "-slo-p99=-1", "-slo-error-rate=-1"}

// serveRun is one daemon's load phase and what the load generator saw of it.
type serveRun struct {
	load    *loadRun
	scrapes []scrape
	trace   []byte
	rssMB   float64
	steal   float64 // host CPU steal during the load phase, percent
}

// bootArgs returns the daemon flags for one boot, with a fresh data
// directory for durable workloads.
func (w serveWorkload) bootArgs(dir string, extra []string) []string {
	args := append(append([]string(nil), w.flags...), extra...)
	if w.durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"))
	}
	return args
}

// runServe measures one serve workload end to end, or, traced, its layers.
func runServe(w serveWorkload, o options, res *Result) error {
	var setups []float64
	var d *daemon
	for i := 0; i < setupBoots; i++ {
		dir := filepath.Join(o.tmp, fmt.Sprintf("boot-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		d, err = startDaemon(o.tracond, w.bootArgs(dir, nil), dir)
		if err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		if i < setupBoots-1 {
			if err := d.stop(); err != nil {
				res.Violate("boot %d: %v", i, err)
			}
		}
	}
	res.Note("setup_s boots: %v", setups)
	run, err := driveDaemon(w, o, d, res, o.trace)
	if err != nil {
		return err
	}
	if !o.trace {
		// A phase that lost stealRetryPct or more of the CPU to the
		// hypervisor measures the host as much as tracond: run it once
		// more on a fresh daemon and report the phase that lost less.
		// Both phases are checked and counted.
		if run.steal >= stealRetryPct {
			dir := filepath.Join(o.tmp, "repeat")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			d, err := startDaemon(o.tracond, w.bootArgs(dir, nil), dir)
			if err != nil {
				return err
			}
			again, err := driveDaemon(w, o, d, res, false)
			if err != nil {
				return err
			}
			if again.steal < run.steal {
				run = again
			}
		}
		res.Set("setup_s", median(setups), "s")
		setServeEndToEnd(res, run)
		return nil
	}

	// Same load, same seed, against a daemon with observability off.
	dir := filepath.Join(o.tmp, "obs-off")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	off, err := startDaemon(o.tracond, w.bootArgs(dir, obsOffFlags), dir)
	if err != nil {
		return err
	}
	offRun, err := driveDaemon(w, o, off, res, false)
	if err != nil {
		return err
	}
	setServeLayers(w, res, run, offRun)
	return probeLayers(w, o, res)
}

// driveDaemon runs the workload's load against d, checks correctness and
// stops d. With scrape set it samples the daemon's metrics through the
// run and fetches its span ring at the end.
func driveDaemon(w serveWorkload, o options, d *daemon, res *Result, scrapeOn bool) (*serveRun, error) {
	c := newClient(d.addr)
	defer c.close()
	out := &serveRun{}
	fail := func(err error) (*serveRun, error) {
		_ = d.stop()
		return nil, err
	}
	apps, err := c.apps()
	if err != nil {
		return fail(err)
	}
	var sc *scraper
	if scrapeOn {
		sc = startScraper(c)
	}
	tr := newTracker()
	c.close() // the load runs on its own nproc connections only
	s0, t0 := hostSteal()
	if w.open {
		sched := poissonSchedule(o.seed, onlineRate, warmUp+o.seconds, apps)
		out.load, err = openLoop(d.addr, tr, d.pid(), sched, warmUp, o.seconds, subWindows, o.conns)
	} else {
		out.load, err = closedBatch(d.addr, tr, d.pid(), o.seed, apps, w.clients, w.group, warmUp, o.seconds, subWindows)
	}
	if s1, t1 := hostSteal(); t1 > t0 {
		out.steal = 100 * float64(s1-s0) / float64(t1-t0)
	}
	if sc != nil {
		out.scrapes, err = sc.finish(err)
	}
	if err != nil {
		return fail(err)
	}
	if scrapeOn {
		if out.trace, err = getBody(c.hc, c.base+"/v1/trace"); err != nil {
			return fail(err)
		}
	}
	res.Note("load phase: host CPU steal %.1f%%", out.steal)
	res.Attempted += out.load.attempted.Load()
	res.Failed += out.load.failed.Load()
	for _, v := range tr.finish() {
		res.Violate("%s", v)
	}
	verifyIdle(c, res)
	if out.rssMB, err = vmHWM(d.pid()); err != nil {
		return fail(err)
	}
	if err := d.stop(); err != nil {
		res.Violate("%v", err)
	}
	return out, nil
}

// setServeEndToEnd reports the end-to-end metrics of one serve run. Each
// is the median over the timed phase's sub-windows: on a shared host a
// disturbance of a second or two moves one window, not the run. The tails
// of the same samples go to the notes; see README.md for why they carry
// no bound.
func setServeEndToEnd(res *Result, run *serveRun) {
	l := run.load
	span := l.timed / time.Duration(len(l.slices))
	var tps, cpu, submit, e2e []float64
	for i := range l.slices {
		s := &l.slices[i]
		sub, end := sortedIn(s.submit, time.Millisecond), sortedIn(s.e2e, time.Millisecond)
		if !supports(500, len(sub)) || !supports(500, len(end)) {
			res.Violate("sub-window %d holds %d submissions and %d tasks, too few for a median", i, len(sub), len(end))
			return
		}
		tps = append(tps, float64(s.tasks)/span.Seconds())
		submit = append(submit, quantile(sub, 500))
		e2e = append(e2e, quantile(end, 500))
		if v, ok := perK(float64(s.daemonCPU)/1e6, float64(s.tasks)); ok {
			cpu = append(cpu, v)
		}
	}
	res.Set("throughput_tps", median(tps), "1/s")
	res.Set("submit_p50_ms", median(submit), "ms")
	res.Set("e2e_p50_ms", median(e2e), "ms")
	if len(cpu) == len(l.slices) {
		res.Set("cpu_ms_per_ktask", median(cpu), "ms")
	}
	res.Set("peak_rss_mb", run.rssMB, "MiB")
	tailNote(res, "submit", l.all(func(s *slice) []time.Duration { return s.submit }))
	tailNote(res, "e2e", l.all(func(s *slice) []time.Duration { return s.e2e }))
	if len(l.queued) > 0 {
		late, q, svc := sortedIn(l.lateness, time.Millisecond), sortedIn(l.queued, time.Millisecond), sortedIn(l.service, time.Millisecond)
		res.Note("open loop p50/p99 ms: generator lateness %.3f/%.3f, due to sent %.3f/%.3f, sent to completed %.3f/%.3f",
			quantile(late, 500), quantile(late, 990), quantile(q, 500), quantile(q, 990), quantile(svc, 500), quantile(svc, 990))
	}
	res.Note("timed phase: %d tasks in %.3f s; daemon CPU %v; load generator CPU %v; per sub-window tasks/s %.0f, cpu_ms_per_ktask %.1f",
		l.completedTimed, l.window.Seconds(), l.daemonCPU, l.selfCPU, tps, cpu)
}

// tailNote records the sample count, p50, p99 and the highest percentile
// the whole timed phase supports.
func tailNote(res *Result, name string, ds []time.Duration) {
	s := sortedIn(ds, time.Millisecond)
	hi := highestSupported(len(s))
	if hi == 0 {
		res.Note("%s latency: n=%d, too few samples for any percentile", name, len(s))
		return
	}
	res.Note("%s latency: n=%d, p50 %.4f ms, p99 %.4f ms, highest supported %s = %.4f ms",
		name, len(s), quantile(s, 500), quantile(s, 990), percentileName(hi), quantile(s, hi))
}

// setServeLayers reports the per-layer numbers read from the daemon.
func setServeLayers(w serveWorkload, res *Result, run, offRun *serveRun) {
	l := run.load
	tasks := float64(l.completedTimed)
	first, last, ok := windowScrapes(run.scrapes, l.windowStart)
	if !ok {
		res.Violate("no metrics scrape inside the timed phase")
		return
	}
	if h, err := histDelta(first, last, "serve_decision_seconds"); err == nil {
		res.Set("serve.decision_us.p50", h.Quantile(0.5)*1e6, "us")
		res.Set("serve.decision_us.p99", h.Quantile(0.99)*1e6, "us")
	} else {
		res.Violate("serve.decision_seconds: %v", err)
	}
	hits, ok1 := scalarDelta(first, last, "serve_cache_hits")
	misses, ok2 := scalarDelta(first, last, "serve_cache_misses")
	if v, ok := ratio(hits, hits+misses); ok && ok1 && ok2 {
		res.Set("serve.cache_hit_ratio", v, "ratio")
		res.Note("serve.cache_hit_ratio base: %.0f lookups", hits+misses)
	}
	if v, base, err := planFirstTry(run.trace); err == nil {
		res.Set("serve.plan_first_try_ratio", v, "ratio")
		res.Note("serve.plan_first_try_ratio base: %d batch passes in the span ring", base)
	} else {
		res.Violate("plan first-try ratio: %v", err)
	}
	if w.durable {
		if h, err := histDelta(first, last, "durable_wal_fsync_seconds"); err == nil {
			res.Set("durable.fsync_ms.p50", h.Quantile(0.5)*1e3, "ms")
			res.Set("durable.fsync_ms.p99", h.Quantile(0.99)*1e3, "ms")
			res.Note("durable.fsync_ms base: %d fsyncs", h.N)
		} else {
			res.Violate("durable.wal_fsync_seconds: %v", err)
		}
	}
	if gc, done, ok := gcWindow(run.scrapes, l.windowStart); ok {
		if v, ok := perK(gc, done); ok {
			res.Set("runtime.gc_per_ktask", v, "count")
			res.Note("runtime.gc_per_ktask base: %.0f GCs over %.0f tasks", gc, done)
		}
	}
	def, ok1 := perK(float64(l.daemonCPU)/1e6, tasks)
	off, ok2 := perK(float64(offRun.load.daemonCPU)/1e6, float64(offRun.load.completedTimed))
	if ok1 && ok2 {
		if v, ok := ratio(def-off, off); ok {
			res.Set("obs.overhead_pct", v*100, "%")
			res.Note("obs.overhead_pct base: %.2f ms/ktask with obs off, %.2f default", off, def)
		}
	}
	res.setPercentiles("", "load.lateness_p99_ms", sortedIn(l.lateness, time.Millisecond), "ms")
	if v, ok := perK(float64(l.selfCPU)/1e6, tasks); ok {
		res.Set("load.client_cpu_ms_per_ktask", v, "ms")
	}
	res.setPercentiles("", "load.submit_p99_ms",
		sortedIn(l.all(func(s *slice) []time.Duration { return s.submit }), time.Millisecond), "ms")
	res.setPercentiles("", "load.e2e_p99_ms",
		sortedIn(l.all(func(s *slice) []time.Duration { return s.e2e }), time.Millisecond), "ms")
}

// scraper polls the daemon's Prometheus exposition through a load phase.
type scraper struct {
	c       *client
	stop    chan struct{}
	done    chan struct{}
	scrapes []scrape
	err     error
}

// scrapeEvery paces the scraper; the daemon's runtime sampler ticks every
// 5 s, so 100 ms locates each of its samples closely.
const scrapeEvery = 100 * time.Millisecond

func startScraper(c *client) *scraper {
	s := &scraper{c: c, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			s.once()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *scraper) once() {
	at := time.Now()
	b, err := getBody(s.c.hc, s.c.base+"/metrics?format=prometheus")
	if err == nil {
		var sc scrape
		if sc, err = parseScrape(at, b); err == nil {
			s.scrapes = append(s.scrapes, sc)
			return
		}
	}
	if s.err == nil {
		s.err = err
	}
}

// finish stops polling, takes a closing scrape after the load drained,
// and returns every scrape; loadErr passes through when set.
func (s *scraper) finish(loadErr error) ([]scrape, error) {
	close(s.stop)
	<-s.done
	s.once()
	if loadErr != nil {
		return nil, loadErr
	}
	return s.scrapes, s.err
}

// windowScrapes returns the first scrape inside the timed phase and the
// closing one.
func windowScrapes(ss []scrape, start time.Time) (first, last scrape, ok bool) {
	for _, s := range ss {
		if !s.at.Before(start) {
			return s, ss[len(ss)-1], true
		}
	}
	return scrape{}, scrape{}, false
}

// gcWindow measures GCs per completed task between the first and the last
// runtime sample the daemon took inside the timed phase. The runtime
// gauges change only when the daemon's sampler ticks; a scrape whose heap
// gauge differs from the previous one lies just after a tick, so GC count
// and completed tasks are read at the same instants.
func gcWindow(ss []scrape, start time.Time) (gc, tasks float64, ok bool) {
	var ticks []scrape
	for i := 1; i < len(ss); i++ {
		if ss[i].at.Before(start) {
			continue
		}
		if ss[i].scalar["runtime_heap_alloc_bytes"] != ss[i-1].scalar["runtime_heap_alloc_bytes"] {
			ticks = append(ticks, ss[i])
		}
	}
	if len(ticks) < 2 {
		return 0, 0, false
	}
	a, b := ticks[0], ticks[len(ticks)-1]
	gc, ok1 := scalarDelta(a, b, "runtime_gc_runs")
	tasks, ok2 := scalarDelta(a, b, "serve_tasks_completed")
	return gc, tasks, ok1 && ok2 && tasks > 0
}

// planFirstTry counts, in a /v1/trace span dump, the batch passes that
// committed on their first optimistic attempt. Spans carry no pass
// identity, so each plan_retry is charged to a distinct pass (a fallback
// pass always follows retries): the ratio is a lower bound, exact when
// no pass retried twice. base is the number of batch passes.
func planFirstTry(ndjson []byte) (v float64, base int, err error) {
	var passes, retries int
	sc := bufio.NewScanner(bytes.NewReader(ndjson))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var ev obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, fmt.Errorf("bad span line: %w", err)
		}
		switch ev.Kind {
		case "batch_pass":
			passes++
		case "plan_retry":
			retries++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if retries > passes {
		retries = passes
	}
	v, ok := ratio(float64(passes-retries), float64(passes))
	if !ok {
		return 0, 0, fmt.Errorf("no batch passes in the span ring")
	}
	return v, passes, nil
}
