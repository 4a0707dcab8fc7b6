package serve

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/sched"
)

// ErrUnknownPlacement is returned for an ID the placer has never issued
// (or has already evicted from the finished ring).
var ErrUnknownPlacement = errors.New("serve: unknown placement")

// ErrNotPlaced is returned when completing a task that is not currently
// occupying a slot (still queued, already completed, or failed).
var ErrNotPlaced = errors.New("serve: placement is not in the placed state")

// ErrUnknownMachine is returned for a machine index outside the inventory.
var ErrUnknownMachine = errors.New("serve: unknown machine")

// ErrBadTransition is returned for a machine lifecycle operation that is
// invalid in the machine's current state (draining a down machine, reviving
// one that never died, ...).
var ErrBadTransition = errors.New("serve: invalid machine state transition")

// ErrQueueFull is returned when the admission bound refuses a submission:
// the backlog (plus whatever free capacity could still absorb it) is at
// the scaled queue bound. The HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: placement queue is full")

// Placement status values.
const (
	StatusQueued    = "queued"
	StatusPlaced    = "placed"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
)

// Placement is the lifecycle record of one submitted task.
type Placement struct {
	ID  string `json:"id"`
	App string `json:"app"`
	// Status is queued, placed, completed or failed.
	Status string `json:"status"`
	// Machine and Slot locate the placement (-1 while queued).
	Machine int `json:"machine"`
	Slot    int `json:"slot"`
	// Neighbour is the application occupying the machine's other VM at
	// placement time ("" for an idle machine).
	Neighbour string `json:"neighbour"`
	// PredictedRuntime and PredictedIOPS are the active model's forecast
	// for this co-location, captured at placement time; completions report
	// observed values against them to drive drift detection.
	PredictedRuntime float64 `json:"predicted_runtime_s"`
	PredictedIOPS    float64 `json:"predicted_iops"`
	// Generation is the model generation that made the decision.
	Generation uint64 `json:"generation"`
	// Error carries the failure reason for StatusFailed.
	Error string `json:"error,omitempty"`
	// Retries counts how many times the task was re-queued after losing its
	// machine (kill re-placement).
	Retries int `json:"retries,omitempty"`
	// ReqID is the X-Request-Id of the submission that created the task,
	// joining the placement record (and its trace spans) back to the HTTP
	// request, its access-log line, and the client's own records.
	ReqID string `json:"request_id,omitempty"`

	// bg is the neighbour's characteristic vector at placement time, kept
	// for the retraining sample the completion observation turns into.
	bg []float64
	// idem is the idempotency key the submission was registered under (""
	// for server-minted request IDs). A resubmission carrying the same key
	// — a client retry across a daemon crash — returns this record instead
	// of creating a duplicate.
	idem string
}

// clone returns a copy safe to hand out after the placer lock is dropped.
func (p *Placement) clone() *Placement {
	c := *p
	c.bg = append([]float64(nil), p.bg...)
	return &c
}

// slot is one VM of a two-VM machine.
type slot struct {
	taskID string // "" when free
	app    string
}

// Machine lifecycle states. Up machines accept placements; drained
// (cordoned) machines finish their in-flight tasks but take no new ones;
// down (killed) machines have lost their in-flight tasks, which the placer
// re-queues for placement elsewhere.
const (
	MachineUp      = "up"
	MachineDrained = "drained"
	MachineDown    = "down"
)

// machine is one physical host: two VMs, per the testbed model.
type machine struct {
	slots [2]slot
	state string
}

// SlotsPerMachine mirrors the two-VM machine model of the simulator.
const SlotsPerMachine = 2

// Placer owns the serving-side cluster state: the machine inventory, the
// free-slot pool, the FIFO backlog, and the placement records. The pool is
// the simulator's sched.FreePool, so a scheduling decision resolves to a
// concrete VM in O(log machines). Once resetInventoryLocked has built the
// inventory, occupyLocked, vacateLocked and setStateLocked are the only
// writers of slots and machine states, and they keep the pool in step.
// Every mutation, and every
// scheduling pass — plan, model scoring and commit — happens under one
// mutex: scoring is a small share of a request's cost, so holding the
// lock through it is cheaper than any scheme that scores outside it.
//
// Admission is enforced here, atomically with the enqueue: the scaled
// queue bound is checked and the task enqueued under one critical section,
// so concurrent submits can never drive the backlog past the bound.
type Placer struct {
	models    *ModelSet
	admission *Admission // nil disables the queue bound
	// tracer records lifecycle spans (nil-safe; set by serve.New).
	tracer *serveTracer
	// journal receives one event per state mutation, appended inside the
	// same critical section as the mutation (nil-safe; set by recovery).
	journal *journal
	// clock times scheduling passes for the tracer; serve.New overrides it
	// with the configured clock.
	clock obs.Clock

	mu       sync.Mutex
	machines []machine
	// pool holds the free slots of up machines, bucketed by neighbour
	// category; drained and down machines' free slots are out of it.
	pool *sched.FreePool
	// upCount is the number of up machines (schedulable capacity).
	upCount    int
	queue      []string // queued placement IDs, FIFO
	placements map[string]*Placement
	nextID     int64
	// dedup maps idempotency keys to placement IDs for as long as the
	// record itself is retained; entries leave with the finished ring.
	dedup map[string]string

	// done is the FIFO of finished (completed/failed) placement IDs; the
	// oldest records are dropped beyond doneCap so the map stays bounded.
	done    []string
	doneCap int
}

// DefaultCompletedCap bounds how many finished placement records are kept
// for GET /v1/placements/{id}.
const DefaultCompletedCap = 65536

// NewPlacer builds an empty inventory of machines. admission may be nil,
// in which case no queue bound is enforced.
func NewPlacer(models *ModelSet, admission *Admission, machines, completedCap int) (*Placer, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("serve: need at least one machine, got %d", machines)
	}
	if completedCap <= 0 {
		completedCap = DefaultCompletedCap
	}
	p := &Placer{
		models:     models,
		admission:  admission,
		clock:      obs.Wall,
		placements: map[string]*Placement{},
		dedup:      map[string]string{},
		doneCap:    completedCap,
	}
	p.resetInventoryLocked(machines)
	for i := range p.machines {
		p.setStateLocked(i, MachineUp)
	}
	return p, nil
}

// resetInventoryLocked replaces the inventory with n empty machines that
// are not yet in service, and the pool with an empty one; setStateLocked
// then brings machines up, entering their slots into the pool in index
// order.
func (p *Placer) resetInventoryLocked(n int) {
	p.machines = make([]machine, n)
	p.pool = sched.NewFreePool()
	p.upCount = 0
}

// occupyLocked binds a task to a free slot. On an up machine the slot
// leaves the pool and a free sibling is re-categorized under app.
func (p *Placer) occupyLocked(mi, si int, taskID, app string) {
	m := &p.machines[mi]
	m.slots[si] = slot{taskID: taskID, app: app}
	if m.state == MachineUp {
		p.pool.Occupy(mi, si, app)
	}
}

// vacateLocked frees a busy slot. On an up machine the VM re-enters the
// pool under the two-VM rule (see sched.FreePool.Release).
func (p *Placer) vacateLocked(mi, si int) {
	m := &p.machines[mi]
	m.slots[si] = slot{}
	if m.state == MachineUp {
		p.pool.Release(mi, si, m.slots[1-si].app)
	}
}

// setStateLocked moves machine mi to state. Leaving the up state takes
// the machine's free slots out of the pool; entering it puts them back,
// in slot order, each categorized by its sibling's occupant.
func (p *Placer) setStateLocked(mi int, state string) {
	m := &p.machines[mi]
	wasUp, up := m.state == MachineUp, state == MachineUp
	m.state = state
	if wasUp == up {
		return
	}
	if up {
		p.upCount++
	} else {
		p.upCount--
	}
	for si := range m.slots {
		if m.slots[si].taskID != "" {
			continue
		}
		if up {
			p.pool.SetFree(mi, si, m.slots[1-si].app)
		} else {
			p.pool.SetBusy(mi, si)
		}
	}
}

// SubmitRequest is one task in a submission: the application to place,
// the originating request ID (which lands on the placement record and
// every trace span the task emits), and an optional idempotency key.
type SubmitRequest struct {
	App   string
	ReqID string
	// Key, when non-empty and matching a retained record — a client
	// retrying a submit it never saw acknowledged, possibly across a daemon
	// crash — returns that record instead of admitting a duplicate.
	Key string
}

// BatchOutcome is one task's result inside a submission: either a
// placement record or a per-task error (unknown application, queue full).
type BatchOutcome struct {
	Placement *Placement
	Err       error
}

// Submit places one task: a batch of one. The returned Placement is a
// copy; its status is placed when a slot was free (or the scheduler chose
// to use one) and queued otherwise.
func (p *Placer) Submit(app string) (*Placement, error) {
	return single(p.SubmitRequests([]SubmitRequest{{App: app}}))
}

// SubmitBatch places a batch of untagged, unkeyed tasks.
func (p *Placer) SubmitBatch(apps []string) ([]BatchOutcome, error) {
	reqs := make([]SubmitRequest, len(apps))
	for i, app := range apps {
		reqs[i].App = app
	}
	return p.SubmitRequests(reqs)
}

// single unwraps a batch of one into the singleton shape: the task's own
// error, else the global scheduling error, else the record.
func single(out []BatchOutcome, err error) (*Placement, error) {
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	if err != nil {
		return nil, err
	}
	return out[0].Placement, nil
}

// SubmitRequests is the one submission path. It dedups, admits and
// enqueues the whole group under one critical section, journals the
// freshly admitted tasks as one event — one commit point, one fsync, on
// disk under fsync=always before the caller is acknowledged — then runs queue-aware scheduling passes over the combined backlog, so
// the batch schedulers (MIBS/MIX) see every queued task at once.
//
// Outcomes are per task and positional: unknown applications and tasks
// beyond the admission budget are rejected individually without failing
// the rest; a keyed task matching a retained record returns that record
// without re-admitting it. The admission bound is checked atomically with
// the enqueue, so concurrent submits can never push the backlog past the
// scaled bound. The returned error is global (a scheduling failure).
func (p *Placer) SubmitRequests(reqs []SubmitRequest) ([]BatchOutcome, error) {
	view := p.models.View()
	out := make([]BatchOutcome, len(reqs))
	var recs []*Placement

	p.mu.Lock()
	budget := p.admitBudgetLocked()
	deduped := make([]bool, len(reqs))
	for i, r := range reqs {
		if r.Key != "" {
			if id, ok := p.dedup[r.Key]; ok {
				if rec, ok := p.placements[id]; ok {
					out[i].Placement = rec // live pointer; cloned below
					deduped[i] = true
					continue
				}
			}
		}
		if err := p.checkKnown(view, r.App); err != nil {
			out[i].Err = err
			continue
		}
		if budget == 0 {
			out[i].Err = ErrQueueFull
			continue
		}
		if budget > 0 {
			budget--
		}
		rec := p.enqueueLocked(r.App, r.ReqID)
		if r.Key != "" {
			rec.idem = r.Key
			p.dedup[r.Key] = rec.ID
		}
		out[i].Placement = rec // live pointer; snapshotted after the drain
		recs = append(recs, rec)
	}
	if p.journal.enabled() && len(recs) > 0 {
		p.journal.append(admitEvent(recs))
	}
	p.mu.Unlock()
	for i, r := range reqs {
		switch {
		case out[i].Placement != nil && !deduped[i]:
			p.tracer.admit(r.ReqID, out[i].Placement.ID, r.App)
		case errors.Is(out[i].Err, ErrQueueFull):
			p.tracer.reject(r.ReqID, r.App, "queue full")
		}
	}

	var drainErr error
	if len(recs) > 0 {
		drainErr = p.drain()
	}
	p.mu.Lock()
	for i := range out {
		if out[i].Placement != nil {
			out[i].Placement = out[i].Placement.clone()
		}
	}
	p.mu.Unlock()
	return out, drainErr
}

// checkKnown reproduces the library's typed error for an application the
// current generation cannot score, so the HTTP layer can map it to 400
// without a second lookup.
func (p *Placer) checkKnown(view ModelView, app string) error {
	if view.Known[app] {
		return nil
	}
	_, err := view.Lib.SoloRuntime(app)
	if err == nil {
		err = fmt.Errorf("%w: %q", model.ErrUnknownApp, app)
	}
	return err
}

// enqueueLocked mints a record and appends it to the backlog.
func (p *Placer) enqueueLocked(app, reqID string) *Placement {
	p.nextID++
	rec := &Placement{
		ID:      fmt.Sprintf("t-%d", p.nextID),
		App:     app,
		Status:  StatusQueued,
		Machine: -1,
		Slot:    -1,
		ReqID:   reqID,
	}
	p.placements[rec.ID] = rec
	p.queue = append(p.queue, rec.ID)
	return rec
}

// admitBudgetLocked returns how many more submissions the admission bound
// allows right now (-1 = unbounded). The budget counts the free
// schedulable slots as absorption: the invariant it maintains is that the
// backlog left after the draining pass never exceeds the scaled bound —
// on a full cluster (no free slots) that means the instantaneous queue
// depth itself never exceeds the bound.
func (p *Placer) admitBudgetLocked() int {
	if p.admission == nil {
		return -1
	}
	available, total := p.capacityLocked()
	bound := p.admission.ScaledBound(available, total)
	if bound < 0 {
		return -1
	}
	budget := bound + p.pool.FreeSlots() - len(p.queue)
	if budget < 0 {
		budget = 0
	}
	return budget
}

// Observation is a completion report: what the task actually experienced.
type Observation struct {
	Runtime float64 `json:"runtime_s"`
	IOPS    float64 `json:"iops"`
}

// Complete frees the task's slot and re-runs the scheduler over the
// backlog. It returns the completed record (a copy).
func (p *Placer) Complete(id string) (*Placement, error) {
	p.mu.Lock()
	rec, ok := p.placements[id]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlacement, id)
	}
	if rec.Status != StatusPlaced {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q is %s", ErrNotPlaced, id, rec.Status)
	}
	if p.machines[rec.Machine].slots[rec.Slot].taskID != id {
		p.mu.Unlock()
		return nil, fmt.Errorf("serve: slot bookkeeping corrupt for %q", id)
	}
	p.vacateLocked(rec.Machine, rec.Slot)
	rec.Status = StatusCompleted
	p.finishLocked(rec.ID)
	if p.journal.enabled() {
		p.journal.append(durable.Event{
			Kind: durable.EvComplete, Task: rec.ID,
			Machine: rec.Machine, Slot: rec.Slot,
		})
	}
	out := rec.clone()
	p.mu.Unlock()
	p.tracer.complete(out)
	if err := p.drain(); err != nil {
		// The completion itself landed; the post-completion drain failed.
		return out, err
	}
	return out, nil
}

// Get returns a copy of the placement record.
func (p *Placer) Get(id string) (*Placement, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.placements[id]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

// QueueDepth returns the backlog length.
func (p *Placer) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// QueueIDs returns the backlog's placement IDs in FIFO order (a copy).
// The deterministic simulation harness asserts re-queue ordering with it.
func (p *Placer) QueueIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.queue...)
}

// FreeSlots returns the number of idle VMs on schedulable (up) machines.
func (p *Placer) FreeSlots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pool.FreeSlots()
}

// capacityLocked reports the schedulable slot count (VMs on up machines)
// against the full inventory; admission control scales its queue bound by
// the ratio, so a cluster that lost machines sheds load instead of
// queueing work it cannot place.
func (p *Placer) capacityLocked() (available, total int) {
	return SlotsPerMachine * p.upCount, SlotsPerMachine * len(p.machines)
}

// Snapshot is one consistent view of the placer's load state, taken under
// a single lock acquisition — the shedding decision and the Retry-After
// hint read queue depth and capacity from the same instant instead of
// mixing two lock acquisitions' worth of state.
type Snapshot struct {
	QueueDepth int `json:"queue_depth"`
	FreeSlots  int `json:"free_slots"`
	Available  int `json:"available_slots"`
	Total      int `json:"total_slots"`
}

// Snapshot captures queue depth, free slots and capacity atomically.
func (p *Placer) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	available, total := p.capacityLocked()
	return Snapshot{
		QueueDepth: len(p.queue),
		FreeSlots:  p.pool.FreeSlots(),
		Available:  available,
		Total:      total,
	}
}

// Drain cordons an up machine: its in-flight tasks finish, but it accepts
// no new placements until Undrain.
func (p *Placer) Drain(id int) error {
	return p.transition(id, MachineUp, MachineDrained, durable.EvDrain, false)
}

// Undrain returns a drained machine to service and re-runs the scheduler —
// the restored capacity may immediately absorb backlog.
func (p *Placer) Undrain(id int) error {
	return p.transition(id, MachineDrained, MachineUp, durable.EvUndrain, true)
}

// Revive returns a down machine to service and re-runs the scheduler.
func (p *Placer) Revive(id int) error {
	return p.transition(id, MachineDown, MachineUp, durable.EvRevive, true)
}

// transition moves machine id from one state to another, optionally
// draining the backlog onto any capacity the transition restored.
func (p *Placer) transition(id int, from, to, kind string, redrain bool) error {
	p.mu.Lock()
	if id < 0 || id >= len(p.machines) {
		p.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownMachine, id)
	}
	if state := p.machines[id].state; state != from {
		p.mu.Unlock()
		return fmt.Errorf("%w: machine %d is %s, not %s", ErrBadTransition, id, state, from)
	}
	p.setStateLocked(id, to)
	if p.journal.enabled() {
		p.journal.append(durable.Event{Kind: kind, Machine: id, Slot: -1})
	}
	p.mu.Unlock()
	if redrain {
		return p.drain()
	}
	return nil
}

// Kill marks an up or drained machine down and re-queues its in-flight
// tasks at the FRONT of the backlog in slot order — they were admitted
// before anything still queued, and FIFO fairness survives the failure.
// It returns the number of tasks re-queued.
func (p *Placer) Kill(id int) (requeued int, err error) {
	p.mu.Lock()
	if id < 0 || id >= len(p.machines) {
		p.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrUnknownMachine, id)
	}
	m := &p.machines[id]
	if m.state == MachineDown {
		p.mu.Unlock()
		return 0, fmt.Errorf("%w: machine %d is already down", ErrBadTransition, id)
	}
	p.setStateLocked(id, MachineDown)
	var lost []string
	lostSlots := map[string]int{}
	for si := range m.slots {
		if tid := m.slots[si].taskID; tid != "" {
			lost = append(lost, tid)
			lostSlots[tid] = si
			p.vacateLocked(id, si)
		}
	}
	evicted := make([]*Placement, 0, len(lost))
	refs := make([]durable.TaskRef, 0, len(lost))
	for _, tid := range lost {
		rec := p.placements[tid]
		resetToQueuedLocked(rec)
		rec.Retries++
		evicted = append(evicted, rec.clone())
		refs = append(refs, taskRef(rec))
	}
	p.queue = append(lost, p.queue...)
	if p.journal.enabled() {
		p.journal.append(durable.Event{Kind: durable.EvKill, Machine: id, Slot: -1, Tasks: refs})
	}
	p.mu.Unlock()
	for _, rec := range evicted {
		p.tracer.evictRequeue(rec, id, lostSlots[rec.ID])
	}
	if err := p.drain(); err != nil {
		return len(lost), err
	}
	return len(lost), nil
}

// SlotView is the JSON shape of one VM in GET /v1/machines.
type SlotView struct {
	State string `json:"state"` // "free" | "busy"
	Task  string `json:"task,omitempty"`
	App   string `json:"app,omitempty"`
}

// MachineView is the JSON shape of one machine.
type MachineView struct {
	ID    int        `json:"id"`
	State string     `json:"state"` // "up" | "drained" | "down"
	Slots []SlotView `json:"slots"`
}

// Machines renders the inventory.
func (p *Placer) Machines() []MachineView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MachineView, len(p.machines))
	for i := range p.machines {
		mv := MachineView{ID: i, State: p.machines[i].state, Slots: make([]SlotView, SlotsPerMachine)}
		for j, s := range p.machines[i].slots {
			if s.taskID == "" {
				mv.Slots[j] = SlotView{State: "free"}
			} else {
				mv.Slots[j] = SlotView{State: "busy", Task: s.taskID, App: s.app}
			}
		}
		out[i] = mv
	}
	return out
}

// finishLocked appends id to the finished ring, evicting the oldest
// finished record beyond the cap. An evicted record takes its dedup
// entry with it — the idempotency window is exactly the retention window.
func (p *Placer) finishLocked(id string) {
	p.done = append(p.done, id)
	for len(p.done) > p.doneCap {
		old := p.done[0]
		if rec, ok := p.placements[old]; ok && rec.idem != "" {
			delete(p.dedup, rec.idem)
		}
		delete(p.placements, old)
		p.done = p.done[1:]
	}
}

// schedPlan is one scheduling input: the head of the backlog, the
// free-pool census and the load signal.
type schedPlan struct {
	view   ModelView
	ids    []string // queue prefix the batch was built from
	batch  []sched.Task
	counts sched.Counts
	load   sched.Load
}

// planLocked evicts queue entries the current library cannot score, then
// builds the next scheduling input. ok is false when there is nothing to
// schedule (empty backlog or no free slots).
func (p *Placer) planLocked() (plan schedPlan, ok bool) {
	view := p.models.View()
	// Evict unknowable queue entries first (possible after a hot-swap to a
	// different census): fail loudly instead of wedging the queue head.
	kept := p.queue[:0]
	var failed []durable.Event
	for _, id := range p.queue {
		rec := p.placements[id]
		if view.Known[rec.App] {
			kept = append(kept, id)
			continue
		}
		rec.Status = StatusFailed
		rec.Error = fmt.Sprintf("application %q unknown to generation %d library", rec.App, view.Gen)
		p.finishLocked(id)
		if p.journal.enabled() {
			failed = append(failed, durable.Event{
				Kind: durable.EvFail, Task: id, Machine: -1, Slot: -1, Error: rec.Error,
			})
		}
	}
	p.queue = kept
	p.journal.append(failed...)

	if len(p.queue) == 0 || p.pool.FreeSlots() == 0 {
		return schedPlan{}, false
	}
	n := view.Scheduler.BatchSize()
	if n > len(p.queue) {
		n = len(p.queue)
	}
	ids := append([]string(nil), p.queue[:n]...)
	batch := make([]sched.Task, n)
	for i, id := range ids {
		batch[i] = sched.Task{ID: int64(i), App: p.placements[id].App}
	}
	// TotalSlots reflects schedulable capacity: lost machines shrink the
	// utilization the adaptive policies see, exactly as in the simulator.
	available, _ := p.capacityLocked()
	return schedPlan{
		view:   view,
		ids:    ids,
		batch:  batch,
		counts: p.pool.Counts(),
		load:   sched.Load{TotalSlots: available, Queued: len(p.queue)},
	}, true
}

// commitLocked binds a scheduling pass's decisions to concrete slots and
// drops the placed tasks from the queue prefix the plan was built from.
// done reports whether draining should stop (nothing placed, or the
// cluster filled mid-batch).
func (p *Placer) commitLocked(plan schedPlan, placements []sched.Placement) (done bool, err error) {
	if len(placements) == 0 {
		return true, nil
	}
	placedIDs := map[int64]bool{}
	var placedEvs []durable.Event
	for _, pl := range placements {
		id := plan.ids[pl.Task.ID]
		rec := p.placements[id]
		if err := p.executeLocked(rec, pl.Category, plan.view); err != nil {
			return true, err
		}
		placedIDs[pl.Task.ID] = true
		if p.journal.enabled() {
			placedEvs = append(placedEvs, placeEvent(rec))
		}
	}
	// One pass's placements journal as one group: one fsync per commit.
	p.journal.append(placedEvs...)
	kept := p.queue[:0]
	for i, id := range p.queue {
		if i >= len(plan.ids) || !placedIDs[int64(i)] {
			kept = append(kept, id)
		}
	}
	p.queue = kept
	return len(placements) < len(plan.batch), nil
}

// drain runs the scheduler over the backlog until it stops placing. Each
// pass plans, scores and commits under one hold of the placer lock.
func (p *Placer) drain() error {
	for {
		t0 := p.clock.Now()
		p.mu.Lock()
		plan, ok := p.planLocked()
		if !ok {
			p.mu.Unlock()
			return nil
		}
		s0 := p.clock.Now()
		placements, err := plan.view.Scheduler.Schedule(plan.batch, plan.counts, plan.load)
		p.tracer.score(len(plan.batch), len(placements), p.clock.Since(s0))
		if err != nil {
			p.mu.Unlock()
			return fmt.Errorf("serve: scheduling: %w", err)
		}
		done, err := p.commitLocked(plan, placements)
		p.mu.Unlock()
		p.tracer.batchPass(len(plan.batch), len(placements), p.clock.Since(t0))
		if err != nil || done {
			return err
		}
	}
}

// executeLocked binds a scheduling decision to a concrete (machine, slot).
func (p *Placer) executeLocked(rec *Placement, category string, view ModelView) error {
	mi, si, err := p.pool.Pop(category)
	if err != nil {
		return fmt.Errorf("serve: scheduler chose category %q but no matching slot is free", category)
	}
	other := p.machines[mi].slots[1-si]
	rec.Status = StatusPlaced
	rec.Machine = mi
	rec.Slot = si
	rec.Neighbour = other.app
	rec.Generation = view.Gen
	// Forecast this co-location for the completion-time drift check. The
	// prediction is telemetry: a failure here (cannot happen for a known
	// pair) must not undo a valid placement.
	if rt, err := view.Pred.PredictRuntime(rec.App, other.app); err == nil {
		rec.PredictedRuntime = rt
	}
	if io, err := view.Pred.PredictIOPS(rec.App, other.app); err == nil {
		rec.PredictedIOPS = io
	}
	if other.app != "" {
		if f, err := view.Lib.Features(other.app); err == nil {
			rec.bg = append([]float64(nil), f...)
		}
	} else {
		rec.bg = make([]float64, model.NumFeatures)
	}
	p.occupyLocked(mi, si, rec.ID, rec.App)
	p.tracer.place(rec)
	return nil
}

// CheckInvariants validates the placer's bookkeeping: slots and placement
// records must agree exactly, the queue must hold only queued records, the
// up-machine count must match the inventory, and the free pool must hold
// exactly the free slots of up machines, each under its sibling's
// occupant. Tests call it after concurrent hammering; any
// violation is a serving-layer bug.
func (p *Placer) CheckInvariants() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	busy, up := 0, 0
	counts := sched.Counts{}
	for i := range p.machines {
		switch p.machines[i].state {
		case MachineUp:
			up++
		case MachineDrained, MachineDown:
		default:
			return fmt.Errorf("serve: machine %d in unknown state %q", i, p.machines[i].state)
		}
		for j, s := range p.machines[i].slots {
			cat, pooled := p.pool.Category(i, j)
			want := s.taskID == "" && p.machines[i].state == MachineUp
			if pooled != want || pooled && cat != p.machines[i].slots[1-j].app {
				return fmt.Errorf("serve: slot %d/%d pooled=%v under %q, want pooled=%v beside %q",
					i, j, pooled, cat, want, p.machines[i].slots[1-j].app)
			}
			if pooled {
				counts[cat]++
			}
			if s.taskID == "" {
				continue
			}
			// A dead machine must have been fully evacuated by Kill.
			if p.machines[i].state == MachineDown {
				return fmt.Errorf("serve: down machine %d still holds task %q in slot %d", i, s.taskID, j)
			}
			busy++
			rec, ok := p.placements[s.taskID]
			if !ok {
				return fmt.Errorf("serve: slot %d/%d holds unknown task %q", i, j, s.taskID)
			}
			if rec.Status != StatusPlaced || rec.Machine != i || rec.Slot != j || rec.App != s.app {
				return fmt.Errorf("serve: slot %d/%d disagrees with record %+v", i, j, rec)
			}
		}
	}
	if up != p.upCount {
		return fmt.Errorf("serve: upCount %d but %d up machines", p.upCount, up)
	}
	if got := p.pool.Counts(); !maps.Equal(got, counts) {
		return fmt.Errorf("serve: pool counts %v, inventory %v", got, counts)
	}
	placed := 0
	for _, rec := range p.placements {
		if rec.Status == StatusPlaced {
			placed++
			if rec.Machine < 0 || rec.Machine >= len(p.machines) ||
				p.machines[rec.Machine].slots[rec.Slot].taskID != rec.ID {
				return fmt.Errorf("serve: placed record %q not on its slot", rec.ID)
			}
		}
	}
	if placed != busy {
		return fmt.Errorf("serve: %d placed records but %d busy slots", placed, busy)
	}
	for _, id := range p.queue {
		rec, ok := p.placements[id]
		if !ok || rec.Status != StatusQueued {
			return fmt.Errorf("serve: queue entry %q not a queued record", id)
		}
	}
	return nil
}
