// Package dst is a deterministic simulation harness for the serving
// daemon, in the FoundationDB style: the full serve stack — Placer,
// admission, swap manager, journal and crash recovery — runs
// on an injected obs.VirtualClock and an in-memory crash-simulating
// filesystem (durable.MemFS), driven by a seeded op-stream interpreter.
// Nothing in the stack reads the wall clock or the OS filesystem, so a
// scenario is a pure function of its seed: the same seed produces a
// byte-identical execution trail, a failing stream shrinks to a minimal
// repro with ddmin, and the printed one-line repro re-runs it exactly.
//
// After every single op the interpreter checks the properties the unit
// and fuzz tests check at their own seams, here composed across the whole
// daemon: placer invariants (CheckInvariants), conservation (no admitted
// task is ever lost or double-placed), the scaled admission bound
// (submissions never grow the backlog past it), FIFO fairness of
// kill-requeues, exactly-once keyed dedup, and — across simulated
// crashes — the journal's durability contract (FsyncAlways loses nothing
// acknowledged; FsyncNever loses at most an unsynced suffix).
package dst

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/serve"
)

// Scenario is one seeded DST run's shape. Everything — the cluster size,
// the policy, the fsync contract, and the op stream — is derived from
// Seed, so Seed alone reproduces the run.
type Scenario struct {
	Seed int64
	Ops  int

	Machines int
	Policy   string
	Fsync    durable.FsyncPolicy

	// InjectRequeueBug deliberately inverts the harness's FIFO-requeue
	// expectation (kill victims expected at the BACK of the queue instead
	// of the front). The daemon is correct, the checker is wrong — which
	// is exactly the point: the meta-test uses it to prove a real
	// invariant violation would be caught, shrunk, and reproduced.
	InjectRequeueBug bool
}

// NewScenario derives a scenario and its op stream from seed. The
// derivation order is fixed; changing it invalidates every recorded seed.
func NewScenario(seed int64, nops int) (Scenario, []Op) {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed, Ops: nops}
	sc.Machines = 2 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		sc.Policy = "fifo"
	} else {
		sc.Policy = "mios"
	}
	if rng.Intn(4) == 0 {
		sc.Fsync = durable.FsyncNever
	} else {
		sc.Fsync = durable.FsyncAlways
	}
	return sc, GenOps(rng, nops)
}

// Run re-derives the scenario's shape and op stream from its seed and
// executes it (InjectRequeueBug carries over — it is a harness knob, not
// a seed draw).
func (sc Scenario) Run(lib *model.Library) ([]byte, error) {
	derived, ops := NewScenario(sc.Seed, sc.Ops)
	derived.InjectRequeueBug = sc.InjectRequeueBug
	return derived.Execute(lib, ops)
}

// Execute interprets an explicit op stream (the shrinker's entry point)
// and returns the execution trail. A non-nil error is a property
// violation (or an unexpected daemon error), stamped with the op index.
func (sc Scenario) Execute(lib *model.Library, ops []Op) ([]byte, error) {
	h := &harness{
		sc:    sc,
		lib:   lib,
		apps:  lib.Apps(),
		clock: obs.NewVirtualClock(time.Unix(1700000000, 0)),
		mem:   durable.NewMemFS(),
		keys:  map[string]string{},
	}
	fmt.Fprintf(&h.trail, "scenario seed=%d ops=%d machines=%d policy=%s fsync=%s\n",
		sc.Seed, len(ops), sc.Machines, sc.Policy, sc.Fsync)
	if err := h.boot(); err != nil {
		return h.trail.Bytes(), fmt.Errorf("boot: %w", err)
	}
	for i, op := range ops {
		if err := h.step(op); err != nil {
			fmt.Fprintf(&h.trail, "%04d %-14s FAIL %v\n", i, op, err)
			return h.trail.Bytes(), fmt.Errorf("op %d %s: %w", i, op, err)
		}
		fmt.Fprintf(&h.trail, "%04d %-14s %s\n", i, op, h.digest())
	}
	if err := h.check(false); err != nil {
		return h.trail.Bytes(), fmt.Errorf("final check: %w", err)
	}
	return h.trail.Bytes(), nil
}

// harness is the live interpreter state: the daemon under test plus the
// ledger of everything the daemon has acknowledged, which the per-op
// property checks replay against the daemon's own answers.
type harness struct {
	sc    Scenario
	lib   *model.Library
	apps  []string
	clock *obs.VirtualClock
	mem   *durable.MemFS
	mgr   *durable.Manager
	srv   *serve.Server

	ids       []string          // acknowledged placement IDs, admission order
	keys      map[string]string // idempotency key → first acknowledged ID
	rejected  int               // ErrQueueFull sheds (expected, counted)
	crashes   int
	prevDepth int

	trail bytes.Buffer // one line per op; byte-identical across same-seed runs
}

// boot opens (or re-opens, after a crash) the journal on the shared MemFS
// and builds a fresh Server over it. The daemon recovers whatever the
// simulated disk durably holds.
func (h *harness) boot() error {
	mgr, err := durable.Open("data", durable.Options{
		Fsync: h.sc.Fsync, Now: h.clock.Now, FS: h.mem,
	})
	if err != nil {
		return err
	}
	srv, err := serve.New(h.lib, serve.Config{
		Machines: h.sc.Machines,
		Policy:   h.sc.Policy,
		BatchMax: 64,
		Retrain: func(map[string][]model.Sample) (*model.Library, error) {
			return h.lib, nil
		},
		SyncRetrain: true,
		TraceCap:    -1,
		Clock:       h.clock,
		Journal:     mgr,
	})
	if err != nil {
		return err
	}
	h.mgr = mgr
	h.srv = srv
	return nil
}

// step interprets one op, then runs the whole property suite.
func (h *harness) step(op Op) error {
	submitted := false
	var err error
	switch op.Kind {
	case OpSubmit:
		submitted, err = true, h.opSubmit(op.Arg)
	case OpBatch:
		submitted, err = true, h.opBatch(op.Arg)
	case OpComplete:
		err = h.opComplete()
	case OpKill:
		err = h.opKill(op.Arg % h.sc.Machines)
	case OpRevive:
		err = tolerate(h.srv.Placer().Revive(op.Arg % h.sc.Machines))
	case OpDrain:
		err = tolerate(h.srv.Placer().Drain(op.Arg % h.sc.Machines))
	case OpUndrain:
		err = tolerate(h.srv.Placer().Undrain(op.Arg % h.sc.Machines))
	case OpDedup:
		submitted, err = true, h.opDedup(op.Arg)
	case OpAdvance:
		h.clock.Advance(time.Duration(1+op.Arg%5000) * time.Millisecond)
	case OpSwap:
		err = h.srv.Swapper().TriggerSwap()
	case OpSnapshot:
		err = h.srv.SnapshotNow()
	case OpCrash:
		err = h.opCrash()
	default:
		err = fmt.Errorf("dst: unknown op kind %d", op.Kind)
	}
	if err != nil {
		return err
	}
	return h.check(submitted)
}

// tolerate accepts the expected no-op outcome of a lifecycle verb fired
// at a machine in the wrong state; anything else is a real failure.
func tolerate(err error) error {
	if err == nil || errors.Is(err, serve.ErrBadTransition) {
		return nil
	}
	return err
}

func (h *harness) opSubmit(arg int) error {
	rec, err := h.srv.Placer().Submit(h.apps[arg%len(h.apps)])
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		h.rejected++
	case err != nil:
		return err
	default:
		h.ids = append(h.ids, rec.ID)
	}
	return nil
}

func (h *harness) opBatch(arg int) error {
	n := 2 + arg%3
	batch := make([]string, n)
	for j := range batch {
		batch[j] = h.apps[(arg+j)%len(h.apps)]
	}
	outcomes, err := h.srv.Placer().SubmitBatch(batch)
	if err != nil {
		return err
	}
	for j, o := range outcomes {
		switch {
		case errors.Is(o.Err, serve.ErrQueueFull):
			h.rejected++
		case o.Err != nil:
			return fmt.Errorf("batch task %d: %w", j, o.Err)
		default:
			h.ids = append(h.ids, o.Placement.ID)
		}
	}
	return nil
}

// opComplete finishes the oldest placed task (admission order).
func (h *harness) opComplete() error {
	p := h.srv.Placer()
	for _, id := range h.ids {
		rec, ok := p.Get(id)
		if ok && rec.Status == serve.StatusPlaced {
			_, err := p.Complete(id)
			return err
		}
	}
	return nil // nothing placed; a no-op draw
}

// opKill fails a machine and checks FIFO fairness of the requeue: the
// victims must land at the queue front in slot order, ahead of everything
// that was still waiting, minus whatever prefix the post-kill scheduling
// pass already re-placed on surviving capacity.
func (h *harness) opKill(machine int) error {
	p := h.srv.Placer()
	var victims []string
	for _, sv := range p.Machines()[machine].Slots {
		if sv.Task != "" {
			victims = append(victims, sv.Task)
		}
	}
	prior := p.QueueIDs()
	if _, err := p.Kill(machine); err != nil {
		return tolerate(err)
	}
	expected := append(append([]string(nil), victims...), prior...)
	if h.sc.InjectRequeueBug {
		// Wrong on purpose: expect victims at the back. See Scenario.
		expected = append(append([]string(nil), prior...), victims...)
	}
	got := p.QueueIDs()
	if len(got) > len(expected) {
		return fmt.Errorf("kill grew the queue: %d tasks, at most %d expected", len(got), len(expected))
	}
	tail := expected[len(expected)-len(got):]
	for i := range got {
		if got[i] != tail[i] {
			return fmt.Errorf("requeue order violates FIFO fairness: queue %v, want a suffix of %v", got, expected)
		}
	}
	return nil
}

// opDedup submits under one of four reused idempotency keys; a replayed
// key must return the first ID minted under it, exactly once, across any
// interleaving of kills, drains, swaps and crashes.
func (h *harness) opDedup(arg int) error {
	key := fmt.Sprintf("k%d", arg%4)
	out, err := h.srv.Placer().SubmitRequests([]serve.SubmitRequest{
		{App: h.apps[arg%len(h.apps)], Key: key},
	})
	if err == nil {
		err = out[0].Err
	}
	rec := out[0].Placement
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		h.rejected++
	case err != nil:
		return err
	case h.keys[key] != "":
		if rec.ID != h.keys[key] {
			return fmt.Errorf("key %q replay returned %q, original was %q — dedup not exactly-once", key, rec.ID, h.keys[key])
		}
	default:
		h.keys[key] = rec.ID
		h.ids = append(h.ids, rec.ID)
	}
	return nil
}

// opCrash simulates a full process crash plus disk loss of everything not
// fsynced: the MemFS drops unsynced state, the old Server (whose file
// handles are now orphaned — their writes can no longer reach the disk)
// is abandoned, and a fresh daemon boots from recovery. Under FsyncAlways
// every acknowledged task must survive; under FsyncNever the recovered
// state must be a prefix of what was acknowledged — losses are allowed,
// inventions are not.
func (h *harness) opCrash() error {
	h.crashes++
	h.mem.Crash()
	if err := h.boot(); err != nil {
		return fmt.Errorf("recovery after crash: %w", err)
	}
	p := h.srv.Placer()
	kept := h.ids[:0]
	for _, id := range h.ids {
		if _, ok := p.Get(id); ok {
			kept = append(kept, id)
			continue
		}
		if h.sc.Fsync == durable.FsyncAlways {
			return fmt.Errorf("crash lost acknowledged task %s under FsyncAlways", id)
		}
	}
	h.ids = kept
	for key, id := range h.keys {
		if _, ok := p.Get(id); !ok {
			if h.sc.Fsync == durable.FsyncAlways {
				return fmt.Errorf("crash lost keyed task %s (key %q) under FsyncAlways", id, key)
			}
			delete(h.keys, key)
		}
	}
	// Recovery requeues orphans: nothing may claim to be placed on the
	// machines the dead daemon was using unless the post-recovery drain
	// re-placed it — which CheckInvariants in the common suite verifies.
	h.prevDepth = p.QueueDepth()
	return nil
}

// check is the per-op property suite: placer invariants, conservation
// with slot uniqueness, and the scaled admission bound.
func (h *harness) check(submitted bool) error {
	p := h.srv.Placer()
	if err := p.CheckInvariants(); err != nil {
		return err
	}
	if _, _, _, err := h.conserve(); err != nil {
		return err
	}
	snap := p.Snapshot()
	if submitted {
		// Mirrors FuzzPlacerBacklog: a kill may leave the backlog overfull
		// (victims were admitted once; shedding them would lose tasks), so
		// the bound governs growth — a submit must never push depth past
		// bound+free when it was not already there.
		if bound := h.srv.Admission().ScaledBound(snap.Available, snap.Total); bound >= 0 &&
			snap.QueueDepth > bound+snap.FreeSlots && snap.QueueDepth > h.prevDepth {
			return fmt.Errorf("submit grew backlog to %d, past scaled bound %d (+%d free)",
				snap.QueueDepth, bound, snap.FreeSlots)
		}
	}
	h.prevDepth = snap.QueueDepth
	return nil
}

// conserve verifies every acknowledged task is still accounted for in
// exactly one state and no two placed tasks share a slot.
func (h *harness) conserve() (queued, placed, done int, err error) {
	p := h.srv.Placer()
	slots := map[[2]int]string{}
	for _, id := range h.ids {
		rec, ok := p.Get(id)
		if !ok {
			return 0, 0, 0, fmt.Errorf("acknowledged task %s vanished", id)
		}
		switch rec.Status {
		case serve.StatusQueued:
			queued++
		case serve.StatusPlaced:
			placed++
			key := [2]int{rec.Machine, rec.Slot}
			if prev, dup := slots[key]; dup {
				return 0, 0, 0, fmt.Errorf("slot %v double-placed: %s and %s", key, prev, id)
			}
			slots[key] = id
		case serve.StatusCompleted:
			done++
		default:
			return 0, 0, 0, fmt.Errorf("task %s in unexpected state %q (%s)", id, rec.Status, rec.Error)
		}
	}
	return queued, placed, done, nil
}

// digest renders one deterministic trail line: the daemon's observable
// state after an op. Byte-identical trails across runs of the same seed
// are the harness's determinism contract, asserted by TestDSTTrailIsDeterministic.
func (h *harness) digest() string {
	queued, placed, done, _ := h.conserve()
	snap := h.srv.Placer().Snapshot()
	return fmt.Sprintf("depth=%d free=%d avail=%d/%d q=%d p=%d c=%d rej=%d gen=%d seq=%d crashes=%d",
		snap.QueueDepth, snap.FreeSlots, snap.Available, snap.Total,
		queued, placed, done, h.rejected, h.srv.ModelSet().Generation(),
		h.mgr.LastSeq(), h.crashes)
}
