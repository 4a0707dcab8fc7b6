package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFreePoolRefreeDoesNotJumpFIFOQueue is the regression test for the
// global-heap staleness bug: a slot that is freed, recategorized, made busy
// and freed again used to retain an older global entry with a smaller
// freed-order stamp, so it popped before slots that had been free longer —
// breaking the documented FIFO-over-VMs spreading.
func TestFreePoolRefreeDoesNotJumpFIFOQueue(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, EmptyCategory) // freed first
	p.SetFree(0, 0, "x")           // recategorized (keeps its FIFO position)
	p.SetBusy(0, 0)
	p.SetFree(1, 0, EmptyCategory) // now the longest-free slot
	p.SetFree(0, 0, EmptyCategory) // refreed: must queue behind (1,0)

	m, s, err := p.Pop(AnyCategory)
	if err != nil || m != 1 || s != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v; want 1,0 (the longest-free slot)", m, s, err)
	}
	m, s, err = p.Pop(AnyCategory)
	if err != nil || m != 0 || s != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v; want 0,0 (the refreed slot)", m, s, err)
	}
}

// TestFreePoolRecategorizeKeepsFIFOPosition: changing a free slot's
// neighbour category must not move it in the FIFO-over-VMs queue.
func TestFreePoolRecategorizeKeepsFIFOPosition(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, EmptyCategory) // freed first
	p.SetFree(1, 0, EmptyCategory) // freed second
	p.SetFree(0, 0, "io")          // recategorized, still the oldest
	m, s, err := p.Pop(AnyCategory)
	if err != nil || m != 0 || s != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v; want 0,0 (recategorization kept it oldest)", m, s, err)
	}
}

// TestFreePoolHeapsStayBounded drives many free/recategorize/busy cycles
// (the access pattern of a long DropRecords run that schedules by category
// and rarely pops the global heap) and asserts heap garbage is compacted
// instead of growing without bound.
func TestFreePoolHeapsStayBounded(t *testing.T) {
	p := NewFreePool()
	const cycles = 50000
	for i := 0; i < cycles; i++ {
		m, s := i%4, (i/4)%2
		p.SetFree(m, s, EmptyCategory)
		p.SetFree(m, s, "x") // recategorization → category-heap garbage
		p.SetBusy(m, s)      // → global-heap garbage
	}
	st := p.Stats()
	// After compaction a heap holds at most its live entries; between
	// compactions it can grow back to the trigger threshold.
	bound := 2*compactMinLen + 16
	if st.GlobalHeapLen > bound {
		t.Fatalf("global heap grew to %d entries over %d cycles (bound %d)", st.GlobalHeapLen, cycles, bound)
	}
	if st.CategoryHeapLen > 2*bound {
		t.Fatalf("category heaps grew to %d entries over %d cycles (bound %d)", st.CategoryHeapLen, cycles, 2*bound)
	}
	if st.FreeSlots != 0 {
		t.Fatalf("FreeSlots = %d, want 0", st.FreeSlots)
	}
}

// refPool is the naive reference implementation of the FreePool contract:
// a flat map of slot states with linear scans. Pop(AnyCategory) takes the
// slot freed the longest ago (FIFO over VMs, index tie-break); category
// pops take the lowest-indexed matching slot.
type refPool struct {
	free  map[[2]int]refSlot
	clock int64
}

type refSlot struct {
	category string
	freedAt  int64
}

func newRefPool() *refPool { return &refPool{free: map[[2]int]refSlot{}} }

func (r *refPool) SetFree(m, s int, category string) {
	key := [2]int{m, s}
	if st, ok := r.free[key]; ok {
		st.category = category
		r.free[key] = st
		return
	}
	r.clock++
	r.free[key] = refSlot{category: category, freedAt: r.clock}
}

func (r *refPool) SetBusy(m, s int) { delete(r.free, [2]int{m, s}) }

func (r *refPool) Counts() Counts {
	out := Counts{}
	for _, st := range r.free {
		out[st.category]++
	}
	return out
}

func (r *refPool) Pop(category string) (int, int, error) {
	bestKey := [2]int{-1, -1}
	found := false
	var bestFreed int64
	for key, st := range r.free {
		if category == AnyCategory {
			if !found || st.freedAt < bestFreed ||
				(st.freedAt == bestFreed && (key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]))) {
				bestKey, bestFreed, found = key, st.freedAt, true
			}
			continue
		}
		if st.category != category {
			continue
		}
		if !found || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
			bestKey, found = key, true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("ref: no free VM")
	}
	delete(r.free, bestKey)
	return bestKey[0], bestKey[1], nil
}

// oldestFree mirrors FreePool.OldestFree on the reference: the slot freed
// the longest ago, index tie-break.
func (r *refPool) oldestFree() (int, int, bool) {
	bestKey := [2]int{-1, -1}
	found := false
	var bestFreed int64
	for key, st := range r.free {
		if !found || st.freedAt < bestFreed ||
			(st.freedAt == bestFreed && (key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]))) {
			bestKey, bestFreed, found = key, st.freedAt, true
		}
	}
	return bestKey[0], bestKey[1], found
}

// TestFreePoolMatchesReferenceRandomized drives FreePool and the naive
// reference through identical random SetFree/SetBusy/Pop sequences and
// requires identical observable behaviour at every step. Fast enough for
// the -race short pass.
func TestFreePoolMatchesReferenceRandomized(t *testing.T) {
	categories := []string{EmptyCategory, "io", "cpu", "mid"}
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		p := NewFreePool()
		ref := newRefPool()
		const machines, slots = 5, 2
		for op := 0; op < 4000; op++ {
			m, s := rng.Intn(machines), rng.Intn(slots)
			switch rng.Intn(4) {
			case 0, 1:
				cat := categories[rng.Intn(len(categories))]
				// SetFree on the real pool is only legal for busy or free
				// slots alike, but SetBusy/SetFree mirror each other.
				p.SetFree(m, s, cat)
				ref.SetFree(m, s, cat)
			case 2:
				p.SetBusy(m, s)
				ref.SetBusy(m, s)
			case 3:
				cat := AnyCategory
				if rng.Intn(2) == 0 {
					cat = categories[rng.Intn(len(categories))]
				}
				gm, gs, gerr := p.Pop(cat)
				wm, ws, werr := ref.Pop(cat)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("seed %d op %d Pop(%q): err %v vs reference %v", seed, op, cat, gerr, werr)
				}
				if gerr == nil && (gm != wm || gs != ws) {
					t.Fatalf("seed %d op %d Pop(%q) = %d,%d; reference %d,%d", seed, op, cat, gm, gs, wm, ws)
				}
			}
			got, want := p.Counts(), ref.Counts()
			for c, n := range want {
				if n == 0 {
					delete(want, c)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d counts %v vs reference %v", seed, op, got, want)
			}
			for c, n := range want {
				if got[c] != n {
					t.Fatalf("seed %d op %d counts %v vs reference %v", seed, op, got, want)
				}
			}
			if p.FreeSlots() != len(ref.free) {
				t.Fatalf("seed %d op %d FreeSlots %d vs reference %d", seed, op, p.FreeSlots(), len(ref.free))
			}
		}
	}
}

// TestFreePoolCrashRecoverMatchesReference adds the fault-injection
// lifecycle to the randomized reference check: machine crashes (both slots
// forced busy at once, as the engine evacuates a downed machine) and
// recoveries (both slots freed Empty-category). A crash-evicted slot that
// recovers must re-enter the FIFO at a fresh generation — it becomes the
// NEWEST free slot, never inheriting its pre-crash position — which the
// OldestFree cross-check after every operation verifies.
func TestFreePoolCrashRecoverMatchesReference(t *testing.T) {
	categories := []string{EmptyCategory, "io", "cpu", "mid"}
	for _, seed := range []int64{3, 11, 99, 4242} {
		rng := rand.New(rand.NewSource(seed))
		p := NewFreePool()
		ref := newRefPool()
		const machines, slots = 5, 2
		for op := 0; op < 4000; op++ {
			m, s := rng.Intn(machines), rng.Intn(slots)
			switch rng.Intn(6) {
			case 0, 1:
				cat := categories[rng.Intn(len(categories))]
				p.SetFree(m, s, cat)
				ref.SetFree(m, s, cat)
			case 2:
				p.SetBusy(m, s)
				ref.SetBusy(m, s)
			case 3:
				cat := AnyCategory
				if rng.Intn(2) == 0 {
					cat = categories[rng.Intn(len(categories))]
				}
				gm, gs, gerr := p.Pop(cat)
				wm, ws, werr := ref.Pop(cat)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("seed %d op %d Pop(%q): err %v vs reference %v", seed, op, cat, gerr, werr)
				}
				if gerr == nil && (gm != wm || gs != ws) {
					t.Fatalf("seed %d op %d Pop(%q) = %d,%d; reference %d,%d", seed, op, cat, gm, gs, wm, ws)
				}
			case 4:
				// Crash: the engine force-busies every slot of the machine
				// (SetBusy is a no-op on slots already handed out).
				for cs := 0; cs < slots; cs++ {
					p.SetBusy(m, cs)
					ref.SetBusy(m, cs)
				}
			case 5:
				// Recovery: both slots return empty-category, stamped as the
				// newest entries in freed order.
				for cs := 0; cs < slots; cs++ {
					p.SetFree(m, cs, EmptyCategory)
					ref.SetFree(m, cs, EmptyCategory)
				}
			}
			gm, gs, gok := p.OldestFree()
			wm, ws, wok := ref.oldestFree()
			if gok != wok || (gok && (gm != wm || gs != ws)) {
				t.Fatalf("seed %d op %d OldestFree = %d,%d,%v; reference %d,%d,%v",
					seed, op, gm, gs, gok, wm, ws, wok)
			}
			if p.FreeSlots() != len(ref.free) {
				t.Fatalf("seed %d op %d FreeSlots %d vs reference %d", seed, op, p.FreeSlots(), len(ref.free))
			}
		}
	}
}

// TestFreePoolTwoVMRule walks one machine through the two-VM bookkeeping
// both executors rely on: a placement re-categorizes the free sibling, a
// release beside a survivor takes the survivor's app, and the release
// that idles the machine returns both slots to the empty category.
func TestFreePoolTwoVMRule(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, EmptyCategory)
	p.SetFree(0, 1, EmptyCategory)
	expect := func(step string, want ...string) {
		t.Helper()
		for s, w := range want {
			got := "busy"
			if cat, free := p.Category(0, s); free {
				got = cat
			}
			if got != w {
				t.Fatalf("%s: slot %d is %q, want %q", step, s, got, w)
			}
		}
	}
	if m, s, err := p.Pop(EmptyCategory); err != nil || m != 0 || s != 0 {
		t.Fatalf("Pop(Empty) = %d,%d,%v", m, s, err)
	}
	p.Occupy(0, 0, "io")
	expect("place io", "busy", "io")
	p.Occupy(0, 1, "cpu") // a replayed placement onto a named slot
	expect("place cpu", "busy", "busy")
	p.Release(0, 0, "cpu")
	expect("release beside cpu", "cpu", "busy")
	p.Release(0, 1, EmptyCategory)
	expect("release to idle", EmptyCategory, EmptyCategory)
	if got := p.Counts(); got[EmptyCategory] != 2 || len(got) != 1 {
		t.Fatalf("idle machine counts %v", got)
	}
}
