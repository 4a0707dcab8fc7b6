package serve

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sched"
)

// refCounts and refFindSlot are frozen copies of the placer's free-pool
// census and slot picker from before it resolved slots through
// sched.FreePool: a scan of the whole inventory per decision. The
// differential test below holds the pool-backed placer to them.

// refCounts summarizes the free pool the way the schedulers expect:
// an idle machine contributes two empty-category slots; a half-busy one
// contributes one slot in its occupant's category.
func refCounts(machines []machine) sched.Counts {
	counts := sched.Counts{}
	for i := range machines {
		if machines[i].state != MachineUp {
			continue // cordoned and dead machines offer no slots
		}
		s0, s1 := machines[i].slots[0], machines[i].slots[1]
		switch {
		case s0.taskID == "" && s1.taskID == "":
			counts[sched.EmptyCategory] += 2
		case s0.taskID == "":
			counts[s1.app]++
		case s1.taskID == "":
			counts[s0.app]++
		}
	}
	return counts
}

// refFindSlot picks the lowest-indexed free slot matching the category:
// AnyCategory takes the first free VM, EmptyCategory a fully idle machine,
// and an application category a half-busy machine whose occupant runs it.
func refFindSlot(machines []machine, category string) (mi, si int) {
	for i := range machines {
		if machines[i].state != MachineUp {
			continue
		}
		s0free := machines[i].slots[0].taskID == ""
		s1free := machines[i].slots[1].taskID == ""
		switch category {
		case sched.AnyCategory:
			if s0free {
				return i, 0
			}
			if s1free {
				return i, 1
			}
		case sched.EmptyCategory:
			if s0free && s1free {
				return i, 0
			}
		default:
			if s0free != s1free { // exactly one free
				occ := machines[i].slots[0]
				free := 1
				if s0free {
					occ = machines[i].slots[1]
					free = 0
				}
				if occ.app == category {
					return i, free
				}
			}
		}
	}
	return -1, -1
}

// refScheduler wraps the live policy. The placer calls Schedule under its
// lock at the start of every pass, so the wrapper sees the inventory and
// the pool exactly as the pass does. It checks the census the placer
// handed in against refCounts, then predicts where each decision must
// land: refFindSlot's pick for a named category (applied to a shadow
// inventory, so later decisions of the same pass see earlier ones), and
// the pool's longest-free slot for AnyCategory.
type refScheduler struct {
	sched.Scheduler
	p *Placer

	err  error             // first divergence
	want map[string][2]int // placement ID → predicted (machine, slot)
	// Coverage of the run, so a vacuous stream fails loudly.
	passes     int
	categories map[string]int
}

func (r *refScheduler) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("pass %d: "+format, append([]any{r.passes}, args...)...)
	}
}

func (r *refScheduler) Schedule(batch []sched.Task, counts sched.Counts, load sched.Load) ([]sched.Placement, error) {
	r.passes++
	if want := refCounts(r.p.machines); !maps.Equal(counts, want) {
		r.fail("placer counts %v, reference %v", counts, want)
	}
	out, err := r.Scheduler.Schedule(batch, counts, load)
	if err != nil || len(out) == 0 {
		return out, err
	}
	var shadow []machine // cloned on the first named-category decision
	for _, pl := range out {
		id := r.p.queue[pl.Task.ID]
		r.categories[pl.Category]++
		var mi, si int
		if pl.Category == sched.AnyCategory {
			// The pool's oldest slot is known only before the pass's first
			// pop; FIFO places one task per pass.
			var ok bool
			if mi, si, ok = r.p.pool.OldestFree(); !ok || len(out) != 1 {
				r.fail("AnyCategory pass placed %d tasks with oldest-free ok=%v", len(out), ok)
				continue
			}
			r.want[id] = [2]int{mi, si}
			continue
		}
		if shadow == nil {
			shadow = slices.Clone(r.p.machines)
		}
		if mi, si = refFindSlot(shadow, pl.Category); mi < 0 {
			r.fail("reference finds no slot for category %q", pl.Category)
			continue
		}
		shadow[mi].slots[si] = slot{taskID: id, app: r.p.placements[id].App}
		r.want[id] = [2]int{mi, si}
	}
	return out, nil
}

// check compares the placements made since the last check with their
// predictions, then resets.
func (r *refScheduler) check() error {
	if r.err != nil {
		return r.err
	}
	for id, want := range r.want {
		rec, ok := r.p.Get(id)
		if !ok || rec.Status != StatusPlaced || [2]int{rec.Machine, rec.Slot} != want {
			return fmt.Errorf("task %s placed at %d/%d (ok=%v, %s), reference %d/%d",
				id, rec.Machine, rec.Slot, ok, rec.Status, want[0], want[1])
		}
	}
	clear(r.want)
	return nil
}

// TestPlacerMatchesReferenceSlotPicker drives seeded op streams — submits,
// batches, completions, kills, drains, undrains and revivals — through a
// pool-backed placer at several cluster sizes and requires, pass by pass,
// the same census as refCounts and, for every named-category decision,
// the same (machine, slot) as refFindSlot. Under FIFO every pick must be
// the slot that has been free the longest. CheckInvariants (which cross-
// checks the pool against the inventory) runs after every op.
func TestPlacerMatchesReferenceSlotPicker(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 80
	}
	for _, policy := range []string{"fifo", "mios", "mibs", "mix"} {
		for _, machines := range []int{1, 8, 1024, 4096} {
			t.Run(fmt.Sprintf("%s/m=%d", policy, machines), func(t *testing.T) {
				runReferenceStream(t, policy, machines, ops, int64(machines)+7)
			})
		}
	}
}

// runReferenceStream drives one seeded op stream with a refScheduler
// installed and checks it after every placer call that can place.
func runReferenceStream(t *testing.T, policy string, machines, nops int, seed int64) {
	s := newTestServer(t, model.NLM, Config{
		Machines: machines, Policy: policy, QueueLen: 8, MaxQueue: -1, TraceCap: -1,
	})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	ref := &refScheduler{p: p, want: map[string][2]int{}, categories: map[string]int{}}
	ms := s.ModelSet()
	ms.mu.Lock()
	ref.Scheduler = ms.scheduler
	ms.scheduler = ref
	ms.mu.Unlock()

	rng := rand.New(rand.NewSource(seed))
	// Burst sizes scale with the cluster so large inventories fill up and
	// churn instead of staying idle.
	burst := max(4, machines/16)
	var placed []string // candidates for completion (re-checked when drawn)
	for i := 0; i < nops; i++ {
		var err error
		var op string
		switch r := rng.Intn(100); {
		case r < 20:
			op = "submit"
			var rec *Placement
			if rec, err = p.Submit(apps[rng.Intn(len(apps))]); err == nil {
				placed = append(placed, rec.ID)
			} else if errors.Is(err, ErrQueueFull) {
				err = nil // every machine is out of service
			}
		case r < 45:
			op = "batch"
			group := make([]string, 1+rng.Intn(burst))
			for j := range group {
				group[j] = apps[rng.Intn(len(apps))]
			}
			var out []BatchOutcome
			out, err = p.SubmitBatch(group)
			for _, o := range out {
				switch {
				case o.Err == nil:
					placed = append(placed, o.Placement.ID)
				case !errors.Is(o.Err, ErrQueueFull):
					err = errors.Join(err, o.Err)
				}
			}
		case r < 75:
			op = "complete"
			for n := 1 + rng.Intn(burst); n > 0 && len(placed) > 0 && err == nil; n-- {
				j := rng.Intn(len(placed))
				id := placed[j]
				if rec, ok := p.Get(id); ok && rec.Status == StatusPlaced {
					if _, err = p.Complete(id); err == nil {
						// A later completion of this op may finish a
						// task the drain just placed: check now.
						err = ref.check()
					}
				}
				if rec, ok := p.Get(id); !ok || rec.Status != StatusQueued {
					placed[j] = placed[len(placed)-1]
					placed = placed[:len(placed)-1]
				}
			}
		case r < 82:
			op = "kill"
			_, err = p.Kill(rng.Intn(machines))
		case r < 88:
			op = "drain"
			err = p.Drain(rng.Intn(machines))
		case r < 94:
			op = "undrain"
			err = p.Undrain(rng.Intn(machines))
		default:
			op = "revive"
			err = p.Revive(rng.Intn(machines))
		}
		if err != nil && !errors.Is(err, ErrBadTransition) {
			t.Fatalf("op %d %s: %v", i, op, err)
		}
		if err := ref.check(); err != nil {
			t.Fatalf("op %d %s: %v", i, op, err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("op %d %s: %v", i, op, err)
		}
	}
	if policy == "fifo" {
		if ref.categories[sched.AnyCategory] == 0 {
			t.Fatalf("stream placed nothing: %v", ref.categories)
		}
	} else if len(ref.categories) < 2 {
		t.Fatalf("stream exercised too few categories to compare pickers: %v", ref.categories)
	}
}
