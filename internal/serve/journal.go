package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"tracon/internal/durable"
)

// Journal integration: the placer appends one durable.Event at every
// state-mutating commit point, inside the same p.mu critical section as
// the mutation itself — WAL order therefore equals mutation order, and a
// request is acknowledged only after its events are (per the configured
// fsync policy) on disk. On boot, Server.recover rebuilds the placer
// from the newest snapshot plus the WAL suffix, re-queues orphaned
// in-flight tasks at the queue front, and verifies invariants before the
// daemon serves its first request.

// journal is the placer's nil-safe handle on a durable.Manager. An
// append failure (disk full, data dir yanked) poisons it permanently:
// the daemon keeps serving — availability over durability, loudly — but
// every subsequent append is dropped and /healthz reports the sticky
// error until the operator intervenes.
type journal struct {
	mgr    *durable.Manager
	logger *slog.Logger

	mu  sync.Mutex
	err error
}

// append journals a group of events as one commit point (one fsync under
// the always policy). Nil-safe; no-op once poisoned.
func (j *journal) append(evs ...durable.Event) {
	if j == nil || len(evs) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.mgr.Append(evs...); err != nil {
		j.err = err
		if j.logger != nil {
			j.logger.LogAttrs(context.Background(), slog.LevelError,
				"journal append failed; durability lost until restart",
				slog.String("error", err.Error()))
		}
	}
}

// Err returns the sticky append failure, if any.
func (j *journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// lastSeq reads the newest assigned sequence (0 without a journal).
func (j *journal) lastSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.mgr.LastSeq()
}

// enabled avoids building events no one will consume.
func (j *journal) enabled() bool { return j != nil }

// Event constructors, shared by the live paths and the tests.

// admitEvent journals one submission's freshly admitted tasks. A lone
// task keeps the compact admit record, so a singleton's WAL bytes are the
// same whichever entry point admitted it; two or more share one
// batch_admit record.
func admitEvent(recs []*Placement) durable.Event {
	if len(recs) == 1 {
		rec := recs[0]
		return durable.Event{
			Kind: durable.EvAdmit, Task: rec.ID, App: rec.App,
			Req: rec.ReqID, Dedup: rec.idem, Machine: -1, Slot: -1,
		}
	}
	refs := make([]durable.TaskRef, len(recs))
	for i, rec := range recs {
		refs[i] = taskRef(rec)
	}
	return durable.Event{Kind: durable.EvBatchAdmit, Tasks: refs, Machine: -1, Slot: -1}
}

func taskRef(rec *Placement) durable.TaskRef {
	return durable.TaskRef{Task: rec.ID, App: rec.App, Req: rec.ReqID, Dedup: rec.idem}
}

func placeEvent(rec *Placement) durable.Event {
	return durable.Event{
		Kind: durable.EvPlace, Task: rec.ID,
		Machine: rec.Machine, Slot: rec.Slot, Neighbour: rec.Neighbour,
		PredRT: rec.PredictedRuntime, PredIOPS: rec.PredictedIOPS,
		Gen: rec.Generation, BG: append([]float64(nil), rec.bg...),
	}
}

// resetToQueuedLocked strips a record's placement binding, returning it
// to the queued state (kill eviction, orphan requeue, replay).
func resetToQueuedLocked(rec *Placement) {
	rec.Status = StatusQueued
	rec.Machine = -1
	rec.Slot = -1
	rec.Neighbour = ""
	rec.PredictedRuntime = 0
	rec.PredictedIOPS = 0
	rec.bg = nil
}

// ExportState captures the placer's full serving state as a neutral
// snapshot struct, stamped with the journal's last assigned sequence.
// Taken under one lock hold, and placer events are only appended under
// that same lock, so the stamp covers exactly the mutations the state
// reflects.
func (p *Placer) ExportState() *durable.PlacerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &durable.PlacerState{
		Seq:    p.journal.lastSeq(),
		NextID: p.nextID,
		Queue:  append([]string(nil), p.queue...),
		Done:   append([]string(nil), p.done...),
	}
	st.Machines = make([]durable.MachineState, len(p.machines))
	for i := range p.machines {
		ms := durable.MachineState{State: p.machines[i].state, Slots: make([]durable.SlotState, SlotsPerMachine)}
		for j, s := range p.machines[i].slots {
			ms.Slots[j] = durable.SlotState{Task: s.taskID, App: s.app}
		}
		st.Machines[i] = ms
	}
	st.Placements = make([]durable.PlacementState, 0, len(p.placements))
	for _, rec := range p.placements {
		st.Placements = append(st.Placements, durable.PlacementState{
			ID: rec.ID, App: rec.App, Status: rec.Status,
			Machine: rec.Machine, Slot: rec.Slot, Neighbour: rec.Neighbour,
			PredRT: rec.PredictedRuntime, PredIOPS: rec.PredictedIOPS,
			Gen: rec.Generation, Error: rec.Error, Retries: rec.Retries,
			Req: rec.ReqID, Dedup: rec.idem,
			BG: append([]float64(nil), rec.bg...),
		})
	}
	sort.Slice(st.Placements, func(i, j int) bool {
		ni, iok := durable.TaskSeq(st.Placements[i].ID)
		nj, jok := durable.TaskSeq(st.Placements[j].ID)
		if iok && jok {
			return ni < nj
		}
		return st.Placements[i].ID < st.Placements[j].ID
	})
	if p.admission != nil {
		st.Rejected = p.admission.Rejected()
	}
	return st
}

// RestoreState replaces the placer's state with a recovered snapshot.
// Boot-time only: the placer must not be serving yet. The free pool is
// rebuilt in machine index order, so the FIFO-over-VMs history starts
// afresh, as it does on a fresh boot.
func (p *Placer) RestoreState(st *durable.PlacerState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(st.Machines) != len(p.machines) {
		return fmt.Errorf("serve: snapshot describes %d machines but the inventory has %d — the data dir belongs to a different cluster shape", len(st.Machines), len(p.machines))
	}
	placements := make(map[string]*Placement, len(st.Placements))
	dedup := map[string]string{}
	for _, ps := range st.Placements {
		rec := &Placement{
			ID: ps.ID, App: ps.App, Status: ps.Status,
			Machine: ps.Machine, Slot: ps.Slot, Neighbour: ps.Neighbour,
			PredictedRuntime: ps.PredRT, PredictedIOPS: ps.PredIOPS,
			Generation: ps.Gen, Error: ps.Error, Retries: ps.Retries,
			ReqID: ps.Req, idem: ps.Dedup,
			bg: append([]float64(nil), ps.BG...),
		}
		placements[rec.ID] = rec
		if rec.idem != "" {
			dedup[rec.idem] = rec.ID
		}
	}
	p.resetInventoryLocked(len(st.Machines))
	for i, ms := range st.Machines {
		for j := 0; j < len(ms.Slots) && j < SlotsPerMachine; j++ {
			if ms.Slots[j].Task != "" {
				p.occupyLocked(i, j, ms.Slots[j].Task, ms.Slots[j].App)
			}
		}
		p.setStateLocked(i, ms.State)
	}
	p.placements = placements
	p.dedup = dedup
	p.queue = append([]string(nil), st.Queue...)
	p.done = append([]string(nil), st.Done...)
	p.nextID = st.NextID
	if p.admission != nil {
		p.admission.CountRejections(int(st.Rejected))
	}
	return nil
}

// Apply replays one journaled event onto the placer, idempotently: every
// transition is guarded by the record's (or machine's) current state, so
// replaying a suffix that partially overlaps the snapshot — or replaying
// the same suffix twice — converges on the same state. Nothing here
// journals: replay must not re-journal history.
func (p *Placer) Apply(ev durable.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case durable.EvAdmit:
		p.applyAdmitLocked(durable.TaskRef{Task: ev.Task, App: ev.App, Req: ev.Req, Dedup: ev.Dedup})
	case durable.EvBatchAdmit:
		for _, t := range ev.Tasks {
			p.applyAdmitLocked(t)
		}
	case durable.EvPlace:
		return p.applyPlaceLocked(ev)
	case durable.EvComplete:
		p.applyFinishLocked(ev.Task, StatusCompleted, "")
	case durable.EvFail:
		p.applyFailLocked(ev)
	case durable.EvKill:
		return p.applyKillLocked(ev)
	case durable.EvRequeue:
		p.applyRequeueLocked(ev)
	case durable.EvDrain, durable.EvUndrain, durable.EvRevive:
		return p.applyMachineLocked(ev)
	case durable.EvGenSwap:
		// Informational: a restarted daemon rebuilds its model library
		// independently of the dead one's generation counter.
	default:
		return fmt.Errorf("serve: replay: unknown event kind %q at seq %d", ev.Kind, ev.Seq)
	}
	return nil
}

func (p *Placer) applyAdmitLocked(t durable.TaskRef) {
	if t.Dedup != "" {
		p.dedup[t.Dedup] = t.Task
	}
	if n, ok := durable.TaskSeq(t.Task); ok && n > p.nextID {
		p.nextID = n
	}
	if _, ok := p.placements[t.Task]; ok {
		return
	}
	rec := &Placement{
		ID: t.Task, App: t.App, Status: StatusQueued,
		Machine: -1, Slot: -1, ReqID: t.Req, idem: t.Dedup,
	}
	p.placements[t.Task] = rec
	p.queue = append(p.queue, t.Task)
}

func (p *Placer) applyPlaceLocked(ev durable.Event) error {
	rec, ok := p.placements[ev.Task]
	if !ok || rec.Status != StatusQueued {
		return nil
	}
	if ev.Machine < 0 || ev.Machine >= len(p.machines) || ev.Slot < 0 || ev.Slot >= SlotsPerMachine {
		return fmt.Errorf("serve: replay: place seq %d targets slot %d/%d outside the inventory", ev.Seq, ev.Machine, ev.Slot)
	}
	if p.machines[ev.Machine].state != MachineUp {
		// The machine was up when this event was journaled but is not at
		// this replay point — an overlapping replay already applied the
		// later kill/drain. Leave the task queued; re-applying the kill is
		// a no-op, so placing here would strand the task on a dead machine.
		return nil
	}
	switch held := p.machines[ev.Machine].slots[ev.Slot].taskID; held {
	case "":
		p.occupyLocked(ev.Machine, ev.Slot, ev.Task, rec.App)
	case ev.Task: // the slot already holds it
	default:
		return fmt.Errorf("serve: replay: place seq %d targets slot %d/%d already holding %q", ev.Seq, ev.Machine, ev.Slot, held)
	}
	rec.Status = StatusPlaced
	rec.Machine = ev.Machine
	rec.Slot = ev.Slot
	rec.Neighbour = ev.Neighbour
	rec.PredictedRuntime = ev.PredRT
	rec.PredictedIOPS = ev.PredIOPS
	rec.Generation = ev.Gen
	rec.bg = append([]float64(nil), ev.BG...)
	p.removeQueuedLocked(ev.Task)
	return nil
}

// applyFinishLocked replays a terminal transition out of the placed state.
func (p *Placer) applyFinishLocked(id, status, errMsg string) {
	rec, ok := p.placements[id]
	if !ok || rec.Status != StatusPlaced {
		return
	}
	p.vacateRecordLocked(rec)
	rec.Status = status
	rec.Error = errMsg
	p.finishLocked(id)
}

func (p *Placer) applyFailLocked(ev durable.Event) {
	rec, ok := p.placements[ev.Task]
	if !ok || rec.Status != StatusQueued {
		return
	}
	p.removeQueuedLocked(ev.Task)
	rec.Status = StatusFailed
	rec.Error = ev.Error
	p.finishLocked(ev.Task)
}

func (p *Placer) applyKillLocked(ev durable.Event) error {
	if ev.Machine < 0 || ev.Machine >= len(p.machines) {
		return fmt.Errorf("serve: replay: kill seq %d targets machine %d outside the inventory", ev.Seq, ev.Machine)
	}
	m := &p.machines[ev.Machine]
	if m.state == MachineDown {
		return nil // already applied (or machine died again after a revive)
	}
	p.setStateLocked(ev.Machine, MachineDown)
	var front []string
	evict := func(rec *Placement) {
		if rec.Machine == ev.Machine {
			p.vacateRecordLocked(rec)
		}
		resetToQueuedLocked(rec)
		rec.Retries++
		front = append(front, rec.ID)
	}
	seen := map[string]bool{}
	for _, t := range ev.Tasks {
		rec, ok := p.placements[t.Task]
		if !ok || rec.Status != StatusPlaced {
			continue
		}
		evict(rec)
		seen[t.Task] = true
	}
	// Anything still occupying the machine was placed there by later
	// replayed events than the journal's eviction list knew about; a down
	// machine must end empty either way.
	for si := range m.slots {
		if tid := m.slots[si].taskID; tid != "" && !seen[tid] {
			if rec, ok := p.placements[tid]; ok {
				evict(rec)
			} else {
				p.vacateLocked(ev.Machine, si)
			}
		}
	}
	p.queue = append(front, p.queue...)
	return nil
}

func (p *Placer) applyRequeueLocked(ev durable.Event) {
	var front []string
	for _, t := range ev.Tasks {
		rec, ok := p.placements[t.Task]
		if !ok || rec.Status != StatusPlaced {
			continue
		}
		p.vacateRecordLocked(rec)
		resetToQueuedLocked(rec)
		rec.Retries++
		front = append(front, rec.ID)
	}
	p.queue = append(front, p.queue...)
}

func (p *Placer) applyMachineLocked(ev durable.Event) error {
	if ev.Machine < 0 || ev.Machine >= len(p.machines) {
		return fmt.Errorf("serve: replay: %s seq %d targets machine %d outside the inventory", ev.Kind, ev.Seq, ev.Machine)
	}
	from, to := MachineUp, MachineDrained
	switch ev.Kind {
	case durable.EvUndrain:
		from, to = MachineDrained, MachineUp
	case durable.EvRevive:
		from, to = MachineDown, MachineUp
	}
	if p.machines[ev.Machine].state == from {
		p.setStateLocked(ev.Machine, to)
	}
	return nil
}

// vacateRecordLocked frees the slot a placed record occupies, if the
// inventory still agrees that it does.
func (p *Placer) vacateRecordLocked(rec *Placement) {
	if rec.Machine >= 0 && rec.Machine < len(p.machines) &&
		p.machines[rec.Machine].slots[rec.Slot].taskID == rec.ID {
		p.vacateLocked(rec.Machine, rec.Slot)
	}
}

// removeQueuedLocked drops one id from the backlog (replay paths only;
// the live paths rewrite the queue wholesale).
func (p *Placer) removeQueuedLocked(id string) {
	for i, q := range p.queue {
		if q == id {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return
		}
	}
}

// RequeueOrphans sends every placed record back to the front of the
// queue in admission (numeric ID) order: the daemon that placed them
// died, so whatever was running in those VMs died with it — exactly the
// Kill eviction semantics, cluster-wide. The re-queue is itself
// journaled (EvRequeue) so a crash between recovery and the next
// snapshot replays it. Returns the number of orphans re-queued.
func (p *Placer) RequeueOrphans() int {
	p.mu.Lock()
	var orphans []*Placement
	for _, rec := range p.placements {
		if rec.Status == StatusPlaced {
			orphans = append(orphans, rec)
		}
	}
	sort.Slice(orphans, func(i, j int) bool {
		ni, iok := durable.TaskSeq(orphans[i].ID)
		nj, jok := durable.TaskSeq(orphans[j].ID)
		if iok && jok {
			return ni < nj
		}
		return orphans[i].ID < orphans[j].ID
	})
	front := make([]string, 0, len(orphans))
	refs := make([]durable.TaskRef, 0, len(orphans))
	type evicted struct {
		rec    *Placement
		mi, si int
	}
	traced := make([]evicted, 0, len(orphans))
	for _, rec := range orphans {
		mi, si := rec.Machine, rec.Slot
		p.vacateRecordLocked(rec)
		resetToQueuedLocked(rec)
		rec.Retries++
		front = append(front, rec.ID)
		refs = append(refs, taskRef(rec))
		traced = append(traced, evicted{rec: rec.clone(), mi: mi, si: si})
	}
	p.queue = append(front, p.queue...)
	if len(refs) > 0 {
		p.journal.append(durable.Event{Kind: durable.EvRequeue, Tasks: refs, Machine: -1, Slot: -1})
	}
	p.mu.Unlock()
	for _, e := range traced {
		p.tracer.evictRequeue(e.rec, e.mi, e.si)
	}
	return len(orphans)
}

// recover rebuilds the placer from mgr's snapshot + WAL suffix and
// attaches the journal to the live paths. Called from New before the
// daemon serves; any error here aborts the boot — serving over a state
// that cannot be trusted is worse than not serving.
func (s *Server) recover(mgr *durable.Manager) error {
	t0 := s.clock.Now()
	info := mgr.Recovery()
	if info.Snapshot != nil {
		if err := s.placer.RestoreState(info.Snapshot); err != nil {
			return err
		}
	}
	for _, ev := range info.Events {
		if err := s.placer.Apply(ev); err != nil {
			return fmt.Errorf("serve: replaying journal: %w", err)
		}
	}
	// Attach the journal only after replay: Apply must never re-journal
	// the history it is replaying.
	j := &journal{mgr: mgr, logger: s.logger}
	s.placer.journal = j
	s.journal = j
	orphans := s.placer.RequeueOrphans()
	if err := s.placer.CheckInvariants(); err != nil {
		return fmt.Errorf("serve: post-recovery invariant check: %w", err)
	}
	// Compact immediately: fold the replayed suffix (and the orphan
	// requeue) into a fresh snapshot so the next boot replays only what
	// happens after this one.
	if err := mgr.WriteSnapshot(s.placer.ExportState()); err != nil {
		return fmt.Errorf("serve: post-recovery snapshot: %w", err)
	}
	s.models.OnSwap(func(gen uint64) {
		j.append(durable.Event{Kind: durable.EvGenSwap, Gen: gen, Machine: -1, Slot: -1})
	})
	mgr.AttachMetrics(s.reg)
	if err := s.placer.drain(); err != nil {
		return fmt.Errorf("serve: post-recovery drain: %w", err)
	}
	dur := s.clock.Since(t0)
	s.tracer.recovery(len(info.Events), orphans, dur)
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, "recovered journal",
		slog.Uint64("last_seq", mgr.LastSeq()),
		slog.Int("replayed_events", len(info.Events)),
		slog.Int("orphans_requeued", orphans),
		slog.Bool("snapshot_loaded", info.Snapshot != nil),
		slog.Int("snapshots_skipped", info.SkippedSnapshots),
		slog.Bool("torn_tail_truncated", info.TornTail),
		slog.Float64("dur_ms", dur.Seconds()*1e3),
	)
	return nil
}

// SnapshotNow exports the placer state and writes one compacted snapshot
// (rotating the WAL segment). A no-op without a journal.
func (s *Server) SnapshotNow() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.mgr.WriteSnapshot(s.placer.ExportState())
}

// Journal exposes the manager (tracond's snapshot loop, tests); nil
// without durability.
func (s *Server) Journal() *durable.Manager {
	if s.journal == nil {
		return nil
	}
	return s.journal.mgr
}

// JournalErr reports the sticky journal failure, if any.
func (s *Server) JournalErr() error { return s.journal.Err() }
