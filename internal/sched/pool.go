package sched

import (
	"container/heap"
	"fmt"
	"sync/atomic"
)

// FreePool tracks every free VM slot in the cluster, bucketed by the
// application occupying the machine's other slot. It resolves Placements
// (which name only a category) to concrete (machine, slot) pairs: a named
// category takes its lowest-indexed slot, AnyCategory the slot that has
// been free the longest. Release and Occupy keep the categories in step
// with the two-VM machine model.
//
// Slots are kept in lazy min-heaps: recategorizations simply push a fresh
// entry and stale entries are discarded at pop time against the
// authoritative per-slot state. A heap that grows large and mostly stale
// (long runs never popping a category accumulate garbage) is compacted in
// place, so heap memory stays proportional to the live slot count.
//
// A FreePool is single-owner state: it is owned by exactly one simulation
// engine, or by one serve.Placer that touches it only under its mutex, and
// must not be shared across goroutines otherwise (the parallel experiment
// runner gives every concurrent simulation its own engine and therefore
// its own pool). Every method carries a cheap atomic reentry guard that
// panics on concurrent access, so a violation of the ownership contract
// fails loudly instead of corrupting heaps silently.
type FreePool struct {
	heaps   map[string]*slotHeap
	global  slotHeap
	state   map[int64]slotState
	counts  Counts
	free    int // live free slots: the sum of counts
	freeSeq int64
	inUse   int32
}

// enter trips the single-owner guard; every public method must pair it
// with leave. It is not a lock — it never blocks — it only detects two
// goroutines inside the pool at once.
func (p *FreePool) enter() {
	if !atomic.CompareAndSwapInt32(&p.inUse, 0, 1) {
		panic("sched: FreePool used concurrently; it is single-owner state (give each engine its own pool)")
	}
}

func (p *FreePool) leave() { atomic.StoreInt32(&p.inUse, 0) }

type slotState struct {
	free     bool
	category string
	// freeGen is the freed-order stamp of the latest busy→free transition.
	// Recategorizations keep it, so a slot's position in the global FIFO is
	// the moment it last became free, not the last time its neighbour
	// changed. Global entries carry the stamp they were pushed with; an
	// entry whose stamp no longer matches is stale and rejected at pop.
	freeGen int64
}

type slotEntry struct {
	machine, slot int
	category      string // category at push time ("" is valid; global uses any)
	seq           int64  // freed-order stamp (0 in category heaps)
}

type slotHeap []slotEntry

// Less orders by freed-order when stamped (the global FIFO-over-VMs heap),
// else by slot index (category heaps, for determinism).
func (h slotHeap) Len() int { return len(h) }
func (h slotHeap) Less(i, j int) bool {
	if h[i].seq != h[j].seq {
		return h[i].seq < h[j].seq
	}
	if h[i].machine != h[j].machine {
		return h[i].machine < h[j].machine
	}
	return h[i].slot < h[j].slot
}
func (h slotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x interface{}) { *h = append(*h, x.(slotEntry)) }
func (h *slotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewFreePool returns an empty pool.
func NewFreePool() *FreePool {
	return &FreePool{
		heaps:  map[string]*slotHeap{},
		state:  map[int64]slotState{},
		counts: Counts{},
	}
}

func slotKey(machine, slot int) int64 { return int64(machine)<<8 | int64(slot) }

// SetFree marks a slot free under the given neighbour category, adding or
// recategorizing as needed.
func (p *FreePool) SetFree(machine, slot int, category string) {
	p.enter()
	defer p.leave()
	if category == AnyCategory {
		panic("sched: AnyCategory is not a real category")
	}
	key := slotKey(machine, slot)
	cur, ok := p.state[key]
	if ok && cur.free {
		if cur.category == category {
			return
		}
		// Recategorization: the slot keeps its freed-order stamp and its
		// existing global entry (which still carries the matching stamp), so
		// its position in the FIFO-over-VMs queue is unchanged. Only the
		// category heaps see a fresh entry.
		p.counts[cur.category]--
		p.state[key] = slotState{free: true, category: category, freeGen: cur.freeGen}
		p.counts[category]++
		p.pushCategory(machine, slot, category)
		return
	}
	// Busy→free transition: stamp the freed order and enter the global FIFO.
	// The next AnyCategory task takes the slot that has been free the
	// longest, so an idle cluster spreads tasks instead of repeatedly
	// packing the lowest-numbered machine.
	p.freeSeq++
	p.state[key] = slotState{free: true, category: category, freeGen: p.freeSeq}
	p.counts[category]++
	p.free++
	p.pushCategory(machine, slot, category)
	heap.Push(&p.global, slotEntry{machine: machine, slot: slot, seq: p.freeSeq})
	p.maybeCompactGlobal()
}

// pushCategory adds a category-heap entry and compacts the heap if stale
// entries dominate it.
func (p *FreePool) pushCategory(machine, slot int, category string) {
	h, ok := p.heaps[category]
	if !ok {
		h = &slotHeap{}
		p.heaps[category] = h
	}
	heap.Push(h, slotEntry{machine: machine, slot: slot, category: category})
	p.maybeCompactCategory(category)
}

// SetBusy marks a slot occupied.
func (p *FreePool) SetBusy(machine, slot int) {
	p.enter()
	defer p.leave()
	p.setBusy(machine, slot)
}

func (p *FreePool) setBusy(machine, slot int) {
	key := slotKey(machine, slot)
	cur, ok := p.state[key]
	if !ok || !cur.free {
		return
	}
	p.counts[cur.category]--
	p.free--
	p.state[key] = slotState{free: false}
}

// Release frees (machine, slot) under the two-VM rule. survivor is the
// application still running in the machine's other slot: the freed slot
// takes it as its category. An EmptyCategory survivor means the machine
// just went idle, so both slots become empty-category (a free sibling
// keeps its FIFO position).
func (p *FreePool) Release(machine, slot int, survivor string) {
	p.SetFree(machine, slot, survivor)
	if survivor != EmptyCategory {
		return
	}
	if _, free := p.Category(machine, 1-slot); free {
		p.SetFree(machine, 1-slot, EmptyCategory)
	}
}

// Occupy marks (machine, slot) busy running app (a no-op for the slot
// itself after Pop) and re-categorizes a free sibling slot, which app
// now neighbours.
func (p *FreePool) Occupy(machine, slot int, app string) {
	p.SetBusy(machine, slot)
	if _, free := p.Category(machine, 1-slot); free {
		p.SetFree(machine, 1-slot, app)
	}
}

// Counts returns a copy of the per-category free counts (zero entries
// removed).
func (p *FreePool) Counts() Counts {
	p.enter()
	defer p.leave()
	out := Counts{} // no size hint: counts keeps every category ever seen
	for c, n := range p.counts {
		if n > 0 {
			out[c] = n
		}
	}
	return out
}

// FreeSlots returns the total number of free slots.
func (p *FreePool) FreeSlots() int {
	p.enter()
	defer p.leave()
	return p.free
}

// Pop resolves a placement category to a concrete free slot and marks it
// busy. A named category takes its lowest-indexed slot; AnyCategory takes
// the slot that has been free the longest.
func (p *FreePool) Pop(category string) (machine, slot int, err error) {
	machine, slot, _, err = p.PopTraced(category)
	return machine, slot, err
}

// PopTraced is Pop plus the popped slot's freed-order stamp — the
// busy→free generation the FIFO-over-VMs queue ordered the slot by. The
// tracing layer records it so fairness can be re-derived offline from an
// event stream alone.
func (p *FreePool) PopTraced(category string) (machine, slot int, freeGen int64, err error) {
	p.enter()
	defer p.leave()
	if category == AnyCategory {
		for p.global.Len() > 0 {
			e := heap.Pop(&p.global).(slotEntry)
			st, ok := p.state[slotKey(e.machine, e.slot)]
			// The stamp must match: a slot freed, made busy and freed again
			// leaves an older entry behind whose stamp no longer matches, and
			// honouring it would let the recently freed slot jump the
			// FIFO-over-VMs queue.
			if ok && st.free && st.freeGen == e.seq {
				p.setBusy(e.machine, e.slot)
				return e.machine, e.slot, st.freeGen, nil
			}
		}
		return 0, 0, 0, fmt.Errorf("sched: no free VM")
	}
	h, ok := p.heaps[category]
	if !ok {
		return 0, 0, 0, fmt.Errorf("sched: no free VM with neighbour %q", category)
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(slotEntry)
		st, oks := p.state[slotKey(e.machine, e.slot)]
		if oks && st.free && st.category == e.category {
			p.setBusy(e.machine, e.slot)
			return e.machine, e.slot, st.freeGen, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("sched: no free VM with neighbour %q", category)
}

// Category returns the current category of a free slot (ok=false if the
// slot is not free).
func (p *FreePool) Category(machine, slot int) (string, bool) {
	p.enter()
	defer p.leave()
	st, ok := p.state[slotKey(machine, slot)]
	if !ok || !st.free {
		return "", false
	}
	return st.category, true
}

// OldestFree returns the free slot that has been free the longest — the
// slot Pop(AnyCategory) is contractually bound to take next. It is a pure
// read (O(slots)) used by the invariant auditor to validate FIFO fairness.
func (p *FreePool) OldestFree() (machine, slot int, ok bool) {
	p.enter()
	defer p.leave()
	best := int64(0)
	for key, st := range p.state {
		if !st.free {
			continue
		}
		if !ok || st.freeGen < best {
			best = st.freeGen
			machine, slot = int(key>>8), int(key&0xff)
			ok = true
		}
	}
	return machine, slot, ok
}

// PoolStats reports the pool's internal sizes, for observability and the
// bounded-garbage tests.
type PoolStats struct {
	// FreeSlots is the number of live free slots.
	FreeSlots int
	// GlobalHeapLen is the global FIFO heap's length, stale entries
	// included.
	GlobalHeapLen int
	// CategoryHeapLen is the summed length of all category heaps, stale
	// entries included.
	CategoryHeapLen int
	// Categories is the number of category heaps ever created.
	Categories int
}

// Stats returns the current PoolStats.
func (p *FreePool) Stats() PoolStats {
	p.enter()
	defer p.leave()
	s := PoolStats{FreeSlots: p.free, GlobalHeapLen: p.global.Len(), Categories: len(p.heaps)}
	for _, h := range p.heaps {
		s.CategoryHeapLen += h.Len()
	}
	return s
}

// compactMinLen is the length below which a heap is never rebuilt. Past
// it, a heap is rebuilt once stale entries dominate it (more than twice
// the live count), so compaction cost amortizes to O(1) per push. The
// floor is small because a long-lived pool on a small cluster (the
// serving placer's) would otherwise carry up to this many stale entries
// per category for good.
const compactMinLen = 64

// maybeCompactGlobal rebuilds the global heap keeping only entries whose
// freed-order stamp still matches the authoritative slot state.
func (p *FreePool) maybeCompactGlobal() {
	if p.global.Len() <= compactMinLen || p.global.Len() <= 2*p.free {
		return
	}
	keep := p.global[:0]
	for _, e := range p.global {
		st, ok := p.state[slotKey(e.machine, e.slot)]
		if ok && st.free && st.freeGen == e.seq {
			keep = append(keep, e)
		}
	}
	p.global = keep
	heap.Init(&p.global)
}

// maybeCompactCategory rebuilds one category heap, dropping stale entries
// and deduplicating live ones (a slot re-freed under the same category can
// legitimately appear twice).
func (p *FreePool) maybeCompactCategory(category string) {
	h, ok := p.heaps[category]
	if !ok {
		return
	}
	live := p.counts[category]
	if live < 0 {
		live = 0
	}
	if h.Len() <= compactMinLen || h.Len() <= 2*live {
		return
	}
	seen := make(map[int64]bool, live)
	keep := (*h)[:0]
	for _, e := range *h {
		key := slotKey(e.machine, e.slot)
		st, oks := p.state[key]
		if oks && st.free && st.category == e.category && !seen[key] {
			seen[key] = true
			keep = append(keep, e)
		}
	}
	*h = keep
	heap.Init(h)
}
