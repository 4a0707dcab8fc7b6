package serve

import (
	"io"
	"time"

	"tracon/internal/obs"
)

// serveTracer records the daemon's request lifecycle into a bounded
// obs.Tracer ring using the schema-3 serve span kinds, exported live on
// GET /v1/trace as NDJSON. Every emit is nil-safe so a daemon running
// with tracing disabled pays only a pointer check per span site. T on
// every span is seconds since the daemon started, making spans from one
// process directly comparable and the export convertible by
// tracontrace -perfetto.
type serveTracer struct {
	tr    *obs.Tracer
	clock obs.Clock
	start time.Time
}

// newServeTracer builds the ring. capacity <= 0 takes obs.DefaultTraceCap;
// a nil clock takes the wall clock.
func newServeTracer(policy string, machines, capacity int, clock obs.Clock) *serveTracer {
	if clock == nil {
		clock = obs.Wall
	}
	return &serveTracer{
		tr:    obs.NewTracer("tracond", policy, machines, capacity),
		clock: clock,
		start: clock.Now(),
	}
}

// emit stamps and records one span.
func (t *serveTracer) emit(kind string, info obs.ServeInfo) {
	if t == nil {
		return
	}
	t.tr.Append(obs.TraceEvent{
		T:     t.clock.Since(t.start).Seconds(),
		Kind:  kind,
		Serve: &info,
	})
}

// admit records a task entering the backlog.
func (t *serveTracer) admit(reqID, task, app string) {
	t.emit("admit", obs.ServeInfo{Req: reqID, Task: task, App: app, Machine: -1, Slot: -1})
}

// reject records a shed submission and why.
func (t *serveTracer) reject(reqID, app, reason string) {
	t.emit("reject", obs.ServeInfo{Req: reqID, App: app, Machine: -1, Slot: -1, Reason: reason})
}

// batchPass records one full draining iteration: batch offered, tasks
// placed, wall time of the pass.
func (t *serveTracer) batchPass(batch, placed int, dur time.Duration) {
	t.emit("batch_pass", obs.ServeInfo{
		Machine: -1, Slot: -1, Batch: batch, Placed: placed, DurS: dur.Seconds(),
	})
}

// score records one scheduler invocation (the model-scoring hot path).
func (t *serveTracer) score(batch, placed int, dur time.Duration) {
	t.emit("score", obs.ServeInfo{
		Machine: -1, Slot: -1, Batch: batch, Placed: placed, DurS: dur.Seconds(),
	})
}

// place records a task binding to a concrete slot.
func (t *serveTracer) place(rec *Placement) {
	t.emit("place", obs.ServeInfo{
		Req: rec.ReqID, Task: rec.ID, App: rec.App,
		Machine: rec.Machine, Slot: rec.Slot, Neighbour: rec.Neighbour,
		Predicted: rec.PredictedRuntime, Gen: rec.Generation,
	})
}

// complete records a task freeing its slot.
func (t *serveTracer) complete(rec *Placement) {
	t.emit("complete", obs.ServeInfo{
		Req: rec.ReqID, Task: rec.ID, App: rec.App,
		Machine: rec.Machine, Slot: rec.Slot,
	})
}

// evictRequeue records a task losing its machine to a kill and returning
// to the backlog.
func (t *serveTracer) evictRequeue(rec *Placement, machine, slot int) {
	t.emit("evict_requeue", obs.ServeInfo{
		Req: rec.ReqID, Task: rec.ID, App: rec.App,
		Machine: machine, Slot: slot,
	})
}

// recovery records one boot-time journal recovery: events replayed
// (Batch), orphans re-queued (Placed) and the wall time of the whole
// restore-replay-verify sequence.
func (t *serveTracer) recovery(replayed, orphans int, dur time.Duration) {
	t.emit("recovery", obs.ServeInfo{
		Machine: -1, Slot: -1, Batch: replayed, Placed: orphans, DurS: dur.Seconds(),
	})
}

// writeNDJSON streams the retained spans; nil tracers write nothing.
func (t *serveTracer) writeNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.tr.WriteNDJSON(w)
}
