package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"tracon/internal/fault"
	"tracon/internal/sched"
)

// Config describes one simulation run.
type Config struct {
	// Machines is the number of physical machines (two VMs each).
	Machines int
	// Scheduler is the policy under test.
	Scheduler sched.Scheduler
	// Table is the measured ground truth the simulator replays.
	Table *InterferenceTable
	// FlushTimeout bounds how long a batch scheduler may hold a partial
	// queue before scheduling it anyway (seconds). Zero means the default
	// of 30 s. Without it, a trickle of arrivals would starve under a
	// batch policy waiting for a full queue.
	FlushTimeout float64
	// DropRecords discards per-task records, keeping only aggregates —
	// needed for the multi-million-task scalability runs.
	DropRecords bool
	// Power is the per-machine power model for energy accounting; the zero
	// value takes DefaultPower.
	Power PowerModel
	// Observer, when non-nil, receives synchronous lifecycle callbacks
	// (see observe.go). nil costs nothing, and observers must not perturb
	// the simulation's outputs.
	Observer Observer
	// Tracer, when non-nil, receives per-event lifecycle trace callbacks
	// (see trace.go). Same contract as Observer: nil costs one branch per
	// emission point, and tracers must not perturb the run.
	Tracer Tracer
	// Faults, when non-nil, injects the plan's deterministic failures into
	// the run (see fault.go): machine crash/recover windows, per-slot
	// slowdowns, probabilistic attempt failures, per-attempt timeouts, and
	// bounded retry-with-backoff. nil — and a plan that injects nothing —
	// leaves the simulation byte-identical to a fault-free run.
	Faults *fault.Plan
}

// vmsPerMachine is fixed at the paper's configuration ("each physical
// machine supports two virtual machines").
const vmsPerMachine = 2

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evFlush
	evMachineDown
	evMachineUp
	evSlowChange
	evRetry
	evTimeout
)

type event struct {
	time    float64
	kind    eventKind
	seq     int64 // tie-break for determinism
	task    sched.Task
	machine int
	slot    int
	gen     int64 // completion generation guard
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type runningTask struct {
	task       sched.Task
	workLeft   float64 // remaining work in solo-seconds
	rate       float64 // current progress rate
	lastUpdate float64
	start      float64
	gen        int64
	placeGen   int64   // placement generation guarding timeout events (faults)
	predicted  float64 // runtime forecast frozen at placement (observers)
	rawLeft    float64 // last pre-clamp workLeft from settle (observers)
}

type machineState struct {
	slots        [vmsPerMachine]*runningTask
	powerW       float64
	lastEnergyAt float64
}

// TaskRecord is the outcome of one completed task.
type TaskRecord struct {
	Task    sched.Task
	Start   float64
	Finish  float64
	Machine int
	Slot    int
}

// Runtime is the task's execution time (queueing excluded, as in eq. 3).
func (r TaskRecord) Runtime() float64 { return r.Finish - r.Start }

// Wait is the queueing delay before the task started.
func (r TaskRecord) Wait() float64 { return r.Start - r.Task.Arrival }

// Results aggregates a simulation run.
type Results struct {
	Scheduler string
	// Completed holds per-task records (empty when Config.DropRecords).
	Completed []TaskRecord
	// CompletedCount is the number of completed tasks (valid always).
	CompletedCount int
	// TotalRuntime is Σ runtimes of completed tasks (eq. 3).
	TotalRuntime float64
	// TotalIOPS is Σ per-task average throughput (eq. 4).
	TotalIOPS float64
	// TotalWait is Σ queueing delays of completed tasks.
	TotalWait float64
	// Horizon is the simulated duration.
	Horizon float64
	// Submitted is the number of tasks offered to the system.
	Submitted int
	// EnergyJ is the integrated cluster energy in joules (see energy.go).
	EnergyJ float64
	// LastFinish is the completion time of the last finished task — the
	// makespan of a workflow run that starts at time zero.
	LastFinish float64

	// Fault-recovery accounting; all fields stay zero in fault-free runs.

	// FailedAttempts counts attempts that failed probabilistically.
	FailedAttempts int
	// Timeouts counts attempts evicted at their per-attempt deadline.
	Timeouts int
	// Evictions counts attempts orphaned by a machine crash.
	Evictions int
	// Retries counts re-placements scheduled after failed attempts.
	Retries int
	// Lost counts tasks abandoned after exhausting their attempt budget.
	Lost int
	// MachineDowns and MachineUps count machine crash/recover transitions.
	MachineDowns int
	MachineUps   int
}

// CompletedTasks returns the completed-task count as a float64. This is
// the T_S of Section 4.7: the paper reports it normalized against FIFO on
// the same arrivals and horizon, so the horizon divides out and the raw
// count is the right quantity. (It was previously named Throughput, which
// wrongly suggested a rate.)
func (r *Results) CompletedTasks() float64 { return float64(r.CompletedCount) }

// TasksPerHour is a true rate: completed tasks per simulated hour.
func (r *Results) TasksPerHour() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.CompletedCount) / (r.Horizon / 3600)
}

// MeanRuntime returns the average execution time of completed tasks.
func (r *Results) MeanRuntime() float64 {
	if r.CompletedCount == 0 {
		return 0
	}
	return r.TotalRuntime / float64(r.CompletedCount)
}

// MeanWait returns the average queueing delay of completed tasks.
func (r *Results) MeanWait() float64 {
	if r.CompletedCount == 0 {
		return 0
	}
	return r.TotalWait / float64(r.CompletedCount)
}

// Engine runs one simulation.
type Engine struct {
	cfg      Config
	machines []machineState
	pool     *sched.FreePool
	events   eventHeap
	deps     *depState
	queue    []sched.Task // backlog; live region is queue[qhead:]
	qhead    int
	now      float64
	seq      int64
	genSeq   int64
	results  Results
	table    *InterferenceTable
	// nextFlushAt is the armed flush wake-up's time (+Inf when none). The
	// engine keeps at most one flush armed — the head task's deadline — so
	// the event heap stays O(machines + pending completions) instead of
	// growing one flush per enqueued task.
	nextFlushAt float64
	// naiveFlush restores the pre-optimization one-flush-per-enqueue
	// behaviour; the flush-equivalence test uses it to prove the suppressed
	// schedule is byte-identical to the naive one.
	naiveFlush bool
	// Fault-injection state (allocated only when Config.Faults is set).
	down      []bool        // machine index → currently crashed
	downCount int           // number of crashed machines
	attempts  map[int64]int // task ID → placement attempts made so far
}

// NewEngine validates the config and prepares an idle cluster.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("sim: need at least one machine")
	}
	if cfg.Scheduler == nil || cfg.Table == nil {
		return nil, fmt.Errorf("sim: scheduler and table are required")
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = 30
	}
	if cfg.Power == (PowerModel{}) {
		cfg.Power = DefaultPower()
	}
	e := &Engine{
		cfg:         cfg,
		machines:    make([]machineState, cfg.Machines),
		pool:        sched.NewFreePool(),
		table:       cfg.Table,
		nextFlushAt: math.Inf(1),
	}
	e.results.Scheduler = cfg.Scheduler.Name()
	for m := 0; m < cfg.Machines; m++ {
		e.machines[m].powerW = cfg.Power.OffW
		for s := 0; s < vmsPerMachine; s++ {
			e.pool.SetFree(m, s, sched.EmptyCategory)
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Machines, vmsPerMachine); err != nil {
			return nil, err
		}
		e.down = make([]bool, cfg.Machines)
		e.attempts = map[int64]int{}
	}
	return e, nil
}

// Run executes the arrivals until the horizon (Inf = run to completion of
// all tasks) and returns the results. Tasks still running or queued at the
// horizon are not counted as completed.
func (e *Engine) Run(arrivals []sched.Task, horizon float64) (*Results, error) {
	for _, t := range arrivals {
		if !e.table.Has(t.App) {
			return nil, fmt.Errorf("sim: unknown application %q", t.App)
		}
		e.push(event{time: t.Arrival, kind: evArrival, task: t})
	}
	var err error
	if e.deps, err = validateDAG(arrivals); err != nil {
		return nil, err
	}
	e.results.Submitted = len(arrivals)
	if e.cfg.Faults != nil {
		// Fault boundaries enter the heap after all arrivals, in Timeline's
		// deterministic order, so their sequence numbers — and therefore
		// same-instant tie-breaks — are pure functions of the inputs.
		for _, b := range e.cfg.Faults.Timeline() {
			switch b.Kind {
			case fault.BoundaryDown:
				e.push(event{time: b.T, kind: evMachineDown, machine: b.Machine, slot: -1})
			case fault.BoundaryUp:
				e.push(event{time: b.T, kind: evMachineUp, machine: b.Machine, slot: -1})
			default:
				e.push(event{time: b.T, kind: evSlowChange, machine: b.Machine, slot: b.Slot})
			}
		}
	}

	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		if ev.time > horizon {
			e.now = horizon
			break
		}
		if ev.time < e.now-1e-9 {
			return nil, fmt.Errorf("sim: time went backwards: %v < %v", ev.time, e.now)
		}
		e.now = math.Max(e.now, ev.time)
		okind := observedKind(ev.kind)
		switch ev.kind {
		case evArrival:
			held := !e.deps.ready(ev.task.ID)
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.TraceArrival(e.now, ev.task, held)
			}
			if held {
				e.deps.hold(ev.task)
				continue
			}
			e.enqueue(ev.task, false)
		case evCompletion:
			rt := e.machines[ev.machine].slots[ev.slot]
			if rt == nil || rt.gen != ev.gen {
				continue // stale completion from before a repricing
			}
			if e.cfg.Faults != nil && e.cfg.Faults.TaskFails(rt.task.ID, e.attempts[rt.task.ID]) {
				// The attempt fails at the instant it would have completed.
				e.evictAttempt(ev.machine, ev.slot, FaultFail)
				okind = EvFail
			} else if err := e.complete(ev.machine, ev.slot); err != nil {
				return nil, err
			}
		case evFlush:
			// Just a wake-up; scheduling below. The armed flush is spent;
			// ensureFlush re-arms for the remaining head if needed.
			e.nextFlushAt = math.Inf(1)
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.TraceFlush(e.now)
			}
		case evMachineDown:
			e.machineDown(ev.machine)
		case evMachineUp:
			e.machineUp(ev.machine)
		case evSlowChange:
			// A slowdown window boundary: settle at the old rate, reprice at
			// the new one. A crashed machine has nothing running to reprice.
			if !e.down[ev.machine] {
				e.settle(ev.machine)
				e.reprice(ev.machine)
			}
		case evRetry:
			t := ev.task
			t.Arrival = e.now // became schedulable now; Wait() measures queueing
			e.enqueue(t, false)
		case evTimeout:
			rt := e.machines[ev.machine].slots[ev.slot]
			if rt == nil || rt.placeGen != ev.gen {
				continue // the attempt completed or was evicted first
			}
			e.evictAttempt(ev.machine, ev.slot, FaultTimeout)
		}
		if err := e.trySchedule(); err != nil {
			return nil, err
		}
		e.ensureFlush()
		if e.cfg.Observer != nil {
			if oerr := e.cfg.Observer.OnEvent(View{e}, okind, e.now); oerr != nil {
				return nil, fmt.Errorf("sim: observer: %w", oerr)
			}
		}
	}
	if math.IsInf(horizon, 1) {
		e.results.Horizon = e.now
	} else {
		e.results.Horizon = horizon
	}
	e.flushEnergy(e.results.Horizon)
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceDone(e.results.Horizon, &e.results)
	}
	if e.cfg.Observer != nil {
		if oerr := e.cfg.Observer.OnDone(View{e}, &e.results); oerr != nil {
			return nil, fmt.Errorf("sim: observer: %w", oerr)
		}
	}
	return &e.results, nil
}

// observedKind maps the internal event kind to the observer-facing one.
// A completion event whose attempt fails probabilistically is reported as
// EvFail by the event loop instead.
func observedKind(k eventKind) EventKind {
	switch k {
	case evArrival:
		return EvArrival
	case evCompletion:
		return EvCompletion
	case evMachineDown:
		return EvMachineDown
	case evMachineUp:
		return EvMachineUp
	case evSlowChange:
		return EvSlowChange
	case evRetry:
		return EvRetry
	case evTimeout:
		return EvTimeout
	default:
		return EvFlush
	}
}

// enqueue adds a schedulable task to the backlog (released marks tasks a
// workflow-dependency completion just unblocked). Flush wake-ups (so a
// partial batch cannot starve waiting for a batch scheduler's queue to
// fill) are armed by ensureFlush after the scheduling pass.
func (e *Engine) enqueue(t sched.Task, released bool) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceEnqueue(e.now, t, released)
	}
	e.queue = append(e.queue, t)
	// Compact the backlog when the dead prefix dominates.
	if e.qhead > 4096 && e.qhead*2 > len(e.queue) {
		e.queue = append(e.queue[:0], e.queue[e.qhead:]...)
		e.qhead = 0
	}
	if e.naiveFlush {
		e.push(event{time: e.now + e.cfg.FlushTimeout, kind: evFlush})
	}
}

// ensureFlush keeps exactly one flush wake-up armed at the backlog head's
// deadline (arrival + FlushTimeout). Arming one flush per enqueued task —
// the previous scheme — bloated the event heap O(tasks); one armed flush
// gives the identical schedule because the backlog is ordered by arrival,
// so the head's deadline is always the earliest one, and a flush at any
// later queued task's deadline would find the head already over its
// timeout and force the same scheduling pass.
func (e *Engine) ensureFlush() {
	if e.naiveFlush || e.backlog() == 0 {
		return
	}
	deadline := e.queue[e.qhead].Arrival + e.cfg.FlushTimeout
	// deadline <= now means the head is already past its timeout and the
	// scheduling pass that just ran could not place it (no free slots or
	// the policy declined); a wake-up would re-run the same decision on the
	// same state. The next arrival or completion re-triggers scheduling,
	// exactly as the per-task scheme behaved once its flushes were spent.
	if deadline <= e.now || e.nextFlushAt <= deadline {
		return
	}
	e.push(event{time: deadline, kind: evFlush})
	e.nextFlushAt = deadline
}

func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.events, ev)
}

// settle brings a machine's running tasks (and energy meter) up to the
// current time.
func (e *Engine) settle(m int) {
	e.settleEnergy(m)
	for _, rt := range e.machines[m].slots {
		if rt == nil {
			continue
		}
		rt.workLeft -= rt.rate * (e.now - rt.lastUpdate)
		rt.rawLeft = rt.workLeft // pre-clamp, for work-conservation audits
		if rt.workLeft < 0 {
			rt.workLeft = 0
		}
		rt.lastUpdate = e.now
	}
}

// reprice recomputes both slots' progress rates after a membership change
// and schedules fresh completion events.
func (e *Engine) reprice(m int) {
	ms := &e.machines[m]
	for s, rt := range ms.slots {
		if rt == nil {
			continue
		}
		neighbour := ""
		if other := ms.slots[1-s]; other != nil {
			neighbour = other.task.App
		}
		rt.rate = e.table.Rate(rt.task.App, neighbour)
		if rt.rate <= 0 {
			rt.rate = 1e-9
		}
		if e.cfg.Faults != nil {
			// A slowdown window dilates the rate; factor 0 is a full stall.
			rt.rate *= e.cfg.Faults.RateFactor(m, s, e.now)
		}
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.TraceSegment(e.now, Segment{
				Machine: m, Slot: s, TaskID: rt.task.ID, App: rt.task.App,
				Rate: rt.rate, Neighbour: neighbour, WorkLeft: rt.workLeft,
			})
		}
		// Generations are engine-global: a per-task counter would collide
		// with stale events left behind by a previous occupant of the slot.
		e.genSeq++
		rt.gen = e.genSeq
		if rt.rate <= 0 {
			// Fully stalled: no completion is schedulable (it would land at
			// an absurd pseudo-time and drag the horizon there when it popped
			// stale). The slowdown window's end boundary reprices the slot.
			continue
		}
		e.push(event{
			time:    e.now + rt.workLeft/rt.rate,
			kind:    evCompletion,
			machine: m,
			slot:    s,
			gen:     rt.gen,
		})
	}
}

// complete finishes the task in (m, slot), records it, frees the VM and
// reprices the survivor.
func (e *Engine) complete(m, slot int) error {
	e.settle(m)
	ms := &e.machines[m]
	rt := ms.slots[slot]
	if rt == nil {
		return fmt.Errorf("sim: completion on empty slot %d/%d", m, slot)
	}
	ms.slots[slot] = nil
	rec := TaskRecord{Task: rt.task, Start: rt.start, Finish: e.now, Machine: m, Slot: slot}
	if e.cfg.Observer != nil || e.cfg.Tracer != nil {
		c := Completion{Record: rec, Predicted: rt.predicted, Residual: rt.rawLeft}
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.TraceComplete(e.now, c)
		}
		if e.cfg.Observer != nil {
			if oerr := e.cfg.Observer.OnComplete(View{e}, c); oerr != nil {
				return fmt.Errorf("sim: observer: %w", oerr)
			}
		}
	}
	// Release any workflow tasks this completion unblocks.
	for _, released := range e.deps.complete(rt.task.ID) {
		released.Arrival = e.now // became schedulable now; Wait() measures queueing
		e.enqueue(released, true)
	}
	if e.now > e.results.LastFinish {
		e.results.LastFinish = e.now
	}
	e.results.CompletedCount++
	e.results.TotalRuntime += rec.Runtime()
	e.results.TotalWait += rec.Wait()
	if !e.cfg.DropRecords {
		e.results.Completed = append(e.results.Completed, rec)
	}
	if ops := e.table.Ops(rt.task.App); ops > 0 && rec.Runtime() > 0 {
		e.results.TotalIOPS += ops / rec.Runtime()
	}

	e.pool.Release(m, slot, e.survivor(m, slot))
	e.reprice(m)
	e.settleEnergy(m) // re-sample power under the new membership
	return nil
}

// survivor is the application running in the other slot of (m, slot)'s
// machine (EmptyCategory when that slot is free).
func (e *Engine) survivor(m, slot int) string {
	if other := e.machines[m].slots[1-slot]; other != nil {
		return other.task.App
	}
	return sched.EmptyCategory
}

// place starts a task on a concrete VM.
func (e *Engine) place(t sched.Task, m, slot int) error {
	ms := &e.machines[m]
	if ms.slots[slot] != nil {
		return fmt.Errorf("sim: slot %d/%d already occupied", m, slot)
	}
	e.settle(m)
	ms.slots[slot] = &runningTask{
		task:       t,
		workLeft:   e.table.SoloRuntime(t.App),
		lastUpdate: e.now,
		start:      e.now,
	}
	e.pool.Occupy(m, slot, t.App)
	// The placement-time neighbour, captured before reprice (which only
	// recomputes rates) for the placement trace.
	neighbour := e.survivor(m, slot)
	if e.cfg.Faults != nil {
		e.attempts[t.ID]++
		e.genSeq++
		ms.slots[slot].placeGen = e.genSeq
		if to := e.cfg.Faults.TaskTimeout; to > 0 {
			// The deadline is armed once per attempt and guarded by placeGen,
			// which (unlike gen) survives repricing. It is pushed before the
			// reprice below ever pushes the attempt's completion event, and
			// repricing only re-pushes completions with later sequence
			// numbers — so a timeout landing at the same instant as the
			// completion deterministically wins.
			e.push(event{time: e.now + to, kind: evTimeout, machine: m, slot: slot, gen: e.genSeq})
		}
	}
	e.reprice(m)
	// Freeze the placement-time runtime forecast for observers (reprice
	// just set the rate under the placement's neighbour).
	rt := ms.slots[slot]
	if rt.rate > 0 {
		rt.predicted = rt.workLeft / rt.rate
	} else {
		// Placed into a fully stalled slowdown window: forecast at the
		// undilated rate — a forecast of +Inf would be meaningless and
		// unencodable in the JSON trace.
		base := e.table.Rate(t.App, neighbour)
		if base <= 0 {
			base = 1e-9
		}
		rt.predicted = rt.workLeft / base
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TracePlace(e.now, PlaceInfo{
			Task: t, Machine: m, Slot: slot, Neighbour: neighbour,
			Work: rt.workLeft, Predicted: rt.predicted,
		})
	}
	e.settleEnergy(m) // re-sample power under the new membership
	return nil
}

// trySchedule runs the scheduling policy against the current queue.
func (e *Engine) trySchedule() error {
	q := e.cfg.Scheduler.BatchSize()
	for e.backlog() > 0 && e.pool.FreeSlots() > 0 {
		n := e.backlog()
		ready := n >= q || e.now-e.queue[e.qhead].Arrival >= e.cfg.FlushTimeout-1e-9
		if !ready {
			return nil
		}
		batchLen := q
		if batchLen > n {
			batchLen = n
		}
		batch := append([]sched.Task(nil), e.queue[e.qhead:e.qhead+batchLen]...)
		// Crashed machines are not capacity (downCount is zero without faults).
		load := sched.Load{TotalSlots: (e.cfg.Machines - e.downCount) * vmsPerMachine, Queued: n}
		counts := e.pool.Counts()
		var candidates []CategoryCount
		if e.cfg.Tracer != nil {
			// Snapshot the candidate set before Schedule mutates its copy.
			cats := make([]string, 0, len(counts))
			for c := range counts {
				cats = append(cats, c)
			}
			sort.Strings(cats)
			candidates = make([]CategoryCount, len(cats))
			for i, c := range cats {
				candidates[i] = CategoryCount{Category: c, N: counts[c]}
			}
		}
		var t0 time.Time
		if e.cfg.Observer != nil {
			t0 = time.Now()
		}
		placements, err := e.cfg.Scheduler.Schedule(batch, counts, load)
		if err != nil {
			return err
		}
		if e.cfg.Observer != nil {
			info := ScheduleInfo{Batch: len(batch), Placed: len(placements), Wall: time.Since(t0)}
			if oerr := e.cfg.Observer.OnSchedule(View{e}, info); oerr != nil {
				return fmt.Errorf("sim: observer: %w", oerr)
			}
		}
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.TraceDecision(e.now, Decision{
				Batch: len(batch), Placed: len(placements), Backlog: n,
				FreeSlots: e.pool.FreeSlots(), Candidates: candidates,
			})
		}
		if len(placements) == 0 {
			return nil
		}
		placed := map[int64]bool{}
		for _, p := range placements {
			var pop PopInfo
			if e.cfg.Observer != nil && p.Category == sched.AnyCategory {
				// Snapshot the FIFO-over-VMs contract's answer before the pop
				// consumes it, so the auditor can hold Pop to it.
				pop.OldestMachine, pop.OldestSlot, pop.OldestOK = e.pool.OldestFree()
			}
			m, slot, freeGen, err := e.pool.PopTraced(p.Category)
			if err != nil {
				return fmt.Errorf("sim: scheduler %s emitted unexecutable placement %+v: %w",
					e.cfg.Scheduler.Name(), p, err)
			}
			pop.Category, pop.Machine, pop.Slot, pop.FreeGen = p.Category, m, slot, freeGen
			if e.cfg.Observer != nil {
				if oerr := e.cfg.Observer.OnPop(View{e}, pop); oerr != nil {
					return fmt.Errorf("sim: observer: %w", oerr)
				}
			}
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.TracePop(e.now, pop)
			}
			if err := e.place(p.Task, m, slot); err != nil {
				return err
			}
			placed[p.Task.ID] = true
		}
		// Keep the unplaced batch members at the front of the backlog,
		// preserving order — O(batch), never O(backlog).
		keep := batch[:0]
		for _, t := range batch {
			if !placed[t.ID] {
				keep = append(keep, t)
			}
		}
		e.qhead += batchLen - len(keep)
		copy(e.queue[e.qhead:e.qhead+len(keep)], keep)
		if len(placements) < batchLen {
			return nil // cluster full; wait for completions
		}
	}
	return nil
}

func (e *Engine) backlog() int { return len(e.queue) - e.qhead }

// QueueLength reports the current backlog (for tests and diagnostics).
func (e *Engine) QueueLength() int { return e.backlog() }
