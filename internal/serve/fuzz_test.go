package serve

import (
	"errors"
	"fmt"
	"testing"

	"tracon/internal/model"
)

// fuzzMachines is the cluster size the fuzzer drives.
const fuzzMachines = 3

// FuzzPlacerBacklog interprets the fuzz input as an operation stream
// against a live Placer — singleton submits, batch submits, completions,
// machine kills, revivals, drains and undrains in arbitrary order — and
// checks after every single operation that CheckInvariants stays silent
// and that admission never grows the backlog past the scaled bound
// (kill-requeued victims may leave it overfull; submits must not add to
// that), then at the end that no task was lost or double-placed: every
// admitted submission is still queued, placed on a unique slot, or
// completed.
//
// Operation encoding: op%9 selects the verb (0-1 submit, 2 submit a batch
// of 2-4 tasks, 3 complete the oldest placed task, 4 kill, 5 revive,
// 6 drain, 7 undrain, 8 submit under a reused idempotency key); op/9
// selects the application (submits), machine (lifecycle verbs) or key
// (dedup submits). Submissions shed by the admission bound (ErrQueueFull
// — the placer enforces it atomically) are expected; lifecycle verbs
// invalid in the machine's current state are expected no-ops
// (ErrBadTransition); anything else is a bug. A keyed resubmission must
// return the FIRST placement ID minted under that key, exactly once, no
// matter what kills, drains and completions happened in between.
func FuzzPlacerBacklog(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x03\x03\x03"))     // fill, then complete
	f.Add([]byte("\x00\x01\x02\x00\x04\x05\x00\x03"))         // kill 0 mid-load, revive
	f.Add([]byte("\x00\x0f\x00\x00\x10\x03"))                 // drain 1, fill, undrain
	f.Add([]byte("\x04\x0d\x16\x00\x00\x05\x0e\x17\x03\x03")) // kill everything, revive everything
	f.Add([]byte("\x02\x0b\x14\x03\x02\x04\x02\x05"))         // batch bursts around a kill
	f.Add([]byte("\x08\x08\x03\x08"))                         // keyed submit, dedup hit, complete, dedup to finished
	f.Add([]byte("\x08\x04\x08\x05\x11\x11"))                 // dedup across a kill/requeue, second key
	f.Add([]byte("\x08\x11\x1a\x23\x02\x08\x11"))             // four keys, a batch, two replays
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // bound one case's work; longer inputs add nothing
		}
		s := newTestServer(t, model.NLM, Config{Machines: fuzzMachines, Policy: "mios"})
		p := s.Placer()
		apps := testLibrary(t, model.NLM).Apps()

		var ids []string
		keys := map[string]string{}
		completed, rejected := 0, 0
		prevDepth := 0
		for i, op := range ops {
			verb, arg := int(op)%9, int(op)/9
			switch verb {
			case 0, 1:
				rec, err := p.Submit(apps[arg%len(apps)])
				switch {
				case errors.Is(err, ErrQueueFull):
					rejected++
				case err != nil:
					t.Fatalf("op %d: submit: %v", i, err)
				default:
					ids = append(ids, rec.ID)
				}
			case 2:
				n := 2 + arg%3
				batch := make([]string, n)
				for j := range batch {
					batch[j] = apps[(arg+j)%len(apps)]
				}
				outcomes, err := p.SubmitBatch(batch)
				if err != nil {
					t.Fatalf("op %d: batch submit: %v", i, err)
				}
				for j, o := range outcomes {
					switch {
					case errors.Is(o.Err, ErrQueueFull):
						rejected++
					case o.Err != nil:
						t.Fatalf("op %d: batch task %d: %v", i, j, o.Err)
					default:
						ids = append(ids, o.Placement.ID)
					}
				}
			case 3:
				for _, id := range ids {
					rec, ok := p.Get(id)
					if ok && rec.Status == StatusPlaced {
						if _, err := p.Complete(id); err != nil {
							t.Fatalf("op %d: complete %q: %v", i, id, err)
						}
						completed++
						break
					}
				}
			case 4:
				if _, err := p.Kill(arg % fuzzMachines); err != nil && !errors.Is(err, ErrBadTransition) {
					t.Fatalf("op %d: kill: %v", i, err)
				}
			case 5:
				if err := p.Revive(arg % fuzzMachines); err != nil && !errors.Is(err, ErrBadTransition) {
					t.Fatalf("op %d: revive: %v", i, err)
				}
			case 6:
				if err := p.Drain(arg % fuzzMachines); err != nil && !errors.Is(err, ErrBadTransition) {
					t.Fatalf("op %d: drain: %v", i, err)
				}
			case 7:
				if err := p.Undrain(arg % fuzzMachines); err != nil && !errors.Is(err, ErrBadTransition) {
					t.Fatalf("op %d: undrain: %v", i, err)
				}
			case 8:
				key := fmt.Sprintf("k%d", arg%4)
				rec, err := submitKeyed(p, apps[arg%len(apps)], "", key)
				switch {
				case errors.Is(err, ErrQueueFull):
					rejected++
				case err != nil:
					t.Fatalf("op %d: keyed submit: %v", i, err)
				case keys[key] != "":
					// Exactly-once: the replay must surface the original
					// placement, never mint a second ID for the same key.
					if rec.ID != keys[key] {
						t.Fatalf("op %d: key %q resubmit returned %q, original was %q", i, key, rec.ID, keys[key])
					}
				default:
					keys[key] = rec.ID
					ids = append(ids, rec.ID)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d (byte %#x): %v", i, op, err)
			}
			// The scaled bound governs admission, not crash recovery: a kill
			// requeues its in-flight victims at the queue front even when the
			// surviving capacity's bound is already met (they were admitted
			// once; shedding them would lose tasks). So the invariant is that
			// submits never GROW the backlog past bound+free — an overfull
			// backlog left by a kill must strictly shrink until it fits.
			snap := p.Snapshot()
			if verb <= 2 {
				if bound := s.admission.ScaledBound(snap.Available, snap.Total); bound >= 0 &&
					snap.QueueDepth > bound+snap.FreeSlots && snap.QueueDepth > prevDepth {
					t.Fatalf("op %d: submit grew backlog to %d, past scaled bound %d (+%d free)",
						i, snap.QueueDepth, bound, snap.FreeSlots)
				}
			}
			prevDepth = snap.QueueDepth
		}

		// Conservation: every admitted task is accounted for exactly once,
		// and no two placed tasks share a slot.
		queued, placed := 0, 0
		slots := map[[2]int]string{}
		for _, id := range ids {
			rec, ok := p.Get(id)
			if !ok {
				t.Fatalf("task %q vanished", id)
			}
			switch rec.Status {
			case StatusQueued:
				queued++
			case StatusPlaced:
				placed++
				key := [2]int{rec.Machine, rec.Slot}
				if prev, dup := slots[key]; dup {
					t.Fatalf("slot %v double-placed: %s and %s", key, prev, id)
				}
				slots[key] = id
			case StatusCompleted:
				// Counted when the completion happened.
			default:
				t.Fatalf("task %q in unexpected state: %+v", id, rec)
			}
		}
		if queued+placed+completed != len(ids) {
			t.Fatalf("conservation: %d queued + %d placed + %d completed != %d admitted (%d rejected)",
				queued, placed, completed, len(ids), rejected)
		}
	})
}
