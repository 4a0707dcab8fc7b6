package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tracon/internal/experiments"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

// fig9Digests holds the reference digest of the Fig 9 rows for each
// environment seed the workload uses.
//
//go:embed fig9_digests.txt
var fig9Digests embed.FS

// minSweeps is the fewest Fig 9 sweeps a run makes.
const minSweeps = 3

// envSeeds is how many environment seeds sim-fig9 rotates through; the
// workload seed picks one, and each has a reference digest.
const envSeeds = 8

// envSeedFor maps a workload seed onto 1..envSeeds.
func envSeedFor(seed int64) int64 {
	return ((seed%envSeeds)+envSeeds)%envSeeds + 1
}

// fig9Rows renders every Fig 9 cell at full precision, one per line.
func fig9Rows(r *experiments.DynamicResult) string {
	var b strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%d,%s,%s,%s,%s,%s\n", c.Machines, c.Mix,
			strconv.FormatFloat(c.Lambda, 'g', -1, 64), c.Scheduler,
			strconv.FormatFloat(c.Completed, 'g', -1, 64),
			strconv.FormatFloat(c.Normalized, 'g', -1, 64))
	}
	return b.String()
}

// digest is the SHA-256 of the rows.
func digest(rows string) string {
	sum := sha256.Sum256([]byte(rows))
	return hex.EncodeToString(sum[:])
}

// referenceDigest looks up the stored digest for an environment seed.
func referenceDigest(envSeed int64) (string, error) {
	f, err := fig9Digests.Open("fig9_digests.txt")
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		seed, d, ok := strings.Cut(line, " ")
		if ok && seed == strconv.FormatInt(envSeed, 10) {
			return strings.TrimSpace(d), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("no reference Fig 9 digest for environment seed %d", envSeed)
}

// checkFig9 records a violation when the rows differ from the reference.
func checkFig9(res *Result, rows, want string, envSeed int64) {
	if got := digest(rows); got != want {
		res.Violate("Fig 9 rows digest %s, reference %s (environment seed %d)", got, want, envSeed)
	}
}

// fig9Gain is the mean MIBS8-over-FIFO normalized throughput across the
// (mix, λ) cells.
func fig9Gain(r *experiments.DynamicResult) float64 {
	var sum float64
	n := 0
	for _, c := range r.Cells {
		if c.Scheduler == "MIBS8" {
			sum += c.Normalized
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// simProbe observes one engine run: the wall time of every scheduling
// decision, the wall time between consecutive processed events, and
// counts. Latencies go into the sweep's reservoirs, shared by the probes
// of one sweep because Fig 9 runs its engines one after another.
type simProbe struct {
	decisions, events *reservoir
	decisionSum       time.Duration
	start             time.Time     // engine built
	wall              time.Duration // engine built until OnDone
	last              time.Time
	nEvents           int64
	nDecisions        int64
	completed         int64
}

func (p *simProbe) OnEvent(sim.View, sim.EventKind, float64) error {
	now := time.Now()
	p.nEvents++
	if !p.last.IsZero() {
		p.events.add(now.Sub(p.last))
	}
	p.last = now
	return nil
}

func (p *simProbe) OnComplete(sim.View, sim.Completion) error {
	p.completed++
	return nil
}

func (p *simProbe) OnPop(sim.View, sim.PopInfo) error { return nil }

func (p *simProbe) OnSchedule(_ sim.View, s sim.ScheduleInfo) error {
	p.decisions.add(s.Wall)
	p.decisionSum += s.Wall
	p.nDecisions++
	return nil
}

func (p *simProbe) OnDone(sim.View, *sim.Results) error {
	p.wall = time.Since(p.start)
	return nil
}

// probeSet collects the probes of one Fig 9 sweep. The factory may be
// called from concurrent workers; Fig 9 runs sequentially, but the lock
// keeps the contract.
type probeSet struct {
	mu                sync.Mutex
	probes            []*simProbe
	decisions, events *reservoir
}

// reservoirCap bounds the latency samples one sweep keeps per kind.
const reservoirCap = 200000

func newProbeSet(seed int64) *probeSet {
	return &probeSet{decisions: newReservoir(reservoirCap, seed), events: newReservoir(reservoirCap, seed+1)}
}

func (s *probeSet) factory(string, string, int, []sched.Task) sim.Observer {
	p := &simProbe{decisions: s.decisions, events: s.events, start: time.Now()}
	s.mu.Lock()
	s.probes = append(s.probes, p)
	s.mu.Unlock()
	return p
}

// sweep is one measured Fig 9 run.
type sweep struct {
	wall        time.Duration
	cpu         time.Duration
	completed   int64
	nEvents     int64
	nDecisions  int64
	decisionSum time.Duration
	decisions   []time.Duration // reservoir sample
	events      []time.Duration // reservoir sample
	runWalls    []time.Duration // each engine run's wall time, in run order
	rows        string
	gain        float64
	steal       float64 // host CPU steal during the sweep, percent
}

// runFig9 runs Fig 9 at paper scale with one worker and the probes
// attached.
func runFig9(env *experiments.Env, seed int64) (*sweep, error) {
	ps := newProbeSet(seed)
	env.Observe = ps.factory
	defer func() { env.Observe = nil }()
	c0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r, err := experiments.Fig9(env, nil, 0)
	if err != nil {
		return nil, err
	}
	s := &sweep{wall: time.Since(t0), rows: fig9Rows(r), gain: fig9Gain(r)}
	c1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	s.cpu = c1 - c0
	for _, p := range ps.probes {
		s.completed += p.completed
		s.nEvents += p.nEvents
		s.nDecisions += p.nDecisions
		s.decisionSum += p.decisionSum
		s.runWalls = append(s.runWalls, p.wall)
	}
	s.decisions, s.events = ps.decisions.buf, ps.events.buf
	return s, nil
}

// runSim measures sim-fig9: NewEnv setupBoots times (setup_s is the
// median), then Fig 9 sweeps.
func runSim(o options, res *Result) error {
	envSeed := envSeedFor(o.seed)
	want, err := referenceDigest(envSeed)
	if err != nil {
		return err
	}
	var setups []float64
	var env *experiments.Env
	for i := 0; i < setupBoots; i++ {
		t0 := time.Now()
		env, err = experiments.NewEnv(envSeed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rssSetup, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	res.Note("environment seed %d; NewEnv runs: %v; VmHWM after set-up %.1f MiB", envSeed, setups, rssSetup)

	// Fig 9 repeats until the run's seconds are spent, at least three
	// times, so that fastestRuns has sweeps to choose from. Every sweep's
	// rows are checked.
	var sweeps []*sweep
	start := time.Now()
	for len(sweeps) < minSweeps || time.Since(start) < o.seconds {
		s0, t0 := hostSteal()
		s, err := runFig9(env, o.seed*31+int64(len(sweeps)))
		if err != nil {
			return err
		}
		if s1, t1 := hostSteal(); t1 > t0 {
			s.steal = 100 * float64(s1-s0) / float64(t1-t0)
		}
		res.Attempted++
		checkFig9(res, s.rows, want, envSeed)
		if len(sweeps) > 0 && len(s.runWalls) != len(sweeps[0].runWalls) {
			return fmt.Errorf("Fig 9 sweep %d ran %d engines, sweep 1 ran %d", len(sweeps)+1, len(s.runWalls), len(sweeps[0].runWalls))
		}
		sweeps = append(sweeps, s)
		res.Note("Fig 9 sweep %d: wall %.3f s, host CPU steal %.1f%%", len(sweeps), s.wall.Seconds(), s.steal)
	}
	last := sweeps[len(sweeps)-1]
	res.Note("%d simulated tasks, %d events, %d decisions per sweep; engine runs at their fastest %.3f s; fig9_gain %.6f; digest %s",
		last.completed, last.nEvents, last.nDecisions, fastestRuns(sweeps).Seconds(), last.gain, digest(last.rows))
	if o.trace {
		setSimLayers(res, sweeps)
		return nil
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	res.Set("setup_s", median(setups), "s")
	res.Set("throughput_tps", float64(last.completed)/fastestRuns(sweeps).Seconds(), "1/s")
	res.Set("submit_p50_ms", least(sweeps, func(s *sweep) float64 { return p50(s.decisions, time.Millisecond) }), "ms")
	res.Set("e2e_p50_ms", least(sweeps, func(s *sweep) float64 { return p50(s.events, time.Millisecond) }), "ms")
	res.Set("cpu_ms_per_ktask", least(sweeps, func(s *sweep) float64 { return float64(s.cpu) / 1e6 / float64(s.completed) * 1000 }), "ms")
	res.Set("peak_rss_mb", rss, "MiB")
	tailNote(res, "decision", last.decisions)
	tailNote(res, "event", last.events)
	return nil
}

// traceFig9 reports the simulator's per-layer metrics in a traced run of
// a serve workload from one Fig 9 sweep, checked like sim-fig9's.
func traceFig9(o options, res *Result) error {
	envSeed := envSeedFor(o.seed)
	want, err := referenceDigest(envSeed)
	if err != nil {
		return err
	}
	env, err := experiments.NewEnv(envSeed)
	if err != nil {
		return err
	}
	s, err := runFig9(env, o.seed*31)
	if err != nil {
		return err
	}
	res.Attempted++
	checkFig9(res, s.rows, want, envSeed)
	setSimLayers(res, []*sweep{s})
	return nil
}

// setSimLayers reports the simulator's per-layer metrics from sweeps of
// one environment.
func setSimLayers(res *Result, sweeps []*sweep) {
	fastest := fastestRuns(sweeps)
	last := sweeps[len(sweeps)-1]
	res.Set("sim.run_s", fastest.Seconds(), "s")
	res.Set("sim.fig9_gain", last.gain, "ratio")
	res.Set("sim.self_s", fastest.Seconds()-least(sweeps, func(s *sweep) float64 { return s.decisionSum.Seconds() }), "s")
	res.Set("sim.events", float64(last.nEvents), "count")
	res.Set("sched.decisions", float64(last.nDecisions), "count")
	res.Set("sched.decision_us.p50", least(sweeps, func(s *sweep) float64 { return p50(s.decisions, time.Microsecond) }), "us")
	res.Set("sched.decision_us.p99", least(sweeps, func(s *sweep) float64 { return p99(s.decisions, time.Microsecond) }), "us")
	tailNote(res, "decision", last.decisions)
}

// fastestRuns sums, over the engine runs of a Fig 9 sweep, each run's
// fastest time across the sweeps. The runs are deterministic and
// identical in every sweep, and a neighbour on a shared host only ever
// slows one down, so the fastest is the least disturbed.
func fastestRuns(sweeps []*sweep) time.Duration {
	var sum time.Duration
	for r := range sweeps[0].runWalls {
		best := sweeps[0].runWalls[r]
		for _, s := range sweeps[1:] {
			best = min(best, s.runWalls[r])
		}
		sum += best
	}
	return sum
}

// least is the lowest f over the sweeps.
func least(sweeps []*sweep, f func(*sweep) float64) float64 {
	v := f(sweeps[0])
	for _, s := range sweeps[1:] {
		v = math.Min(v, f(s))
	}
	return v
}

func p50(ds []time.Duration, unit time.Duration) float64 { return quantile(sortedIn(ds, unit), 500) }
func p99(ds []time.Duration, unit time.Duration) float64 { return quantile(sortedIn(ds, unit), 990) }
