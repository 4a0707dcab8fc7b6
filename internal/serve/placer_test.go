package serve

import (
	"errors"
	"fmt"
	"testing"

	"tracon/internal/model"
	"tracon/internal/xen"
)

// newTestServer wires a Server over a shared trained library.
func newTestServer(t testing.TB, k model.Kind, cfg Config) *Server {
	t.Helper()
	s, err := New(testLibrary(t, k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// subLibrary builds a library holding only the named applications, reusing
// the trained per-app models — a cheap way to get a census-changing swap.
func subLibrary(t *testing.T, lib *model.Library, apps ...string) *model.Library {
	t.Helper()
	sub := model.NewLibrary(lib.Kind)
	for _, a := range apps {
		m, err := lib.Model(a)
		if err != nil {
			t.Fatal(err)
		}
		f, err := lib.Features(a)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := lib.SoloRuntime(a)
		if err != nil {
			t.Fatal(err)
		}
		io, err := lib.SoloIOPS(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AddTrained(m, f, xen.SoloProfile{Runtime: rt, IOPS: io}); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

func TestPlacerFillQueueAndPromote(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mios"})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	var recs []*Placement
	for i := 0; i < 6; i++ {
		rec, err := p.Submit(apps[i%len(apps)])
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	placed, queued := 0, 0
	for _, r := range recs {
		switch r.Status {
		case StatusPlaced:
			placed++
		case StatusQueued:
			queued++
		default:
			t.Fatalf("unexpected status %q", r.Status)
		}
	}
	if placed != 4 || queued != 2 {
		t.Fatalf("want 4 placed / 2 queued on 2 machines, got %d/%d", placed, queued)
	}
	if got := p.FreeSlots(); got != 0 {
		t.Fatalf("free slots = %d, want 0", got)
	}
	if got := p.QueueDepth(); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Completing one placement must promote a queued task into the slot.
	var placedID string
	for _, r := range recs {
		if r.Status == StatusPlaced {
			placedID = r.ID
			break
		}
	}
	done, err := p.Complete(placedID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusCompleted {
		t.Fatalf("completed record has status %q", done.Status)
	}
	if got := p.QueueDepth(); got != 1 {
		t.Fatalf("queue depth after completion = %d, want 1", got)
	}
	if got := p.FreeSlots(); got != 0 {
		t.Fatalf("free slots after promotion = %d, want 0", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacerNeighbourRecorded(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1, Policy: "mios"})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	first, err := p.Submit(apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusPlaced || first.Neighbour != "" {
		t.Fatalf("first placement: %+v", first)
	}
	if first.PredictedRuntime <= 0 {
		t.Fatalf("no runtime forecast captured: %+v", first)
	}
	second, err := p.Submit(apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusPlaced || second.Neighbour != apps[0] {
		t.Fatalf("second placement should co-locate with %q: %+v", apps[0], second)
	}
	if second.Machine != first.Machine || second.Slot == first.Slot {
		t.Fatalf("second placement not on the sibling VM: %+v vs %+v", second, first)
	}
}

func TestPlacerTypedErrors(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	if _, err := p.Submit("nosuch"); !errors.Is(err, model.ErrUnknownApp) {
		t.Fatalf("submit of unknown app: %v", err)
	}
	if _, err := p.Complete("t-999"); !errors.Is(err, ErrUnknownPlacement) {
		t.Fatalf("complete of unknown id: %v", err)
	}
	rec, err := p.Submit(apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(rec.ID); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("double complete: %v", err)
	}
	// A queued (not yet placed) task cannot be completed either.
	for i := 0; i < 2; i++ {
		if _, err := p.Submit(apps[i]); err != nil {
			t.Fatal(err)
		}
	}
	q, err := p.Submit(apps[2])
	if err != nil {
		t.Fatal(err)
	}
	if q.Status != StatusQueued {
		t.Fatalf("expected a queued task on a full machine, got %+v", q)
	}
	if _, err := p.Complete(q.ID); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("complete of queued task: %v", err)
	}
}

// A hot-swap that shrinks the census must fail queued tasks the new
// library cannot score, loudly, instead of wedging the queue head.
func TestPlacerFailsQueuedTasksUnknownAfterSwap(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	apps := lib.Apps()
	s, err := New(lib, Config{Machines: 1, Policy: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placer()
	// Fill both slots with apps[0], then queue apps[1].
	var ids []string
	for i := 0; i < 2; i++ {
		rec, err := p.Submit(apps[0])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	victim, err := p.Submit(apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if victim.Status != StatusQueued {
		t.Fatalf("expected queued, got %+v", victim)
	}
	// Swap to a library that has never heard of apps[1].
	if err := s.ModelSet().Swap(subLibrary(t, lib, apps[0])); err != nil {
		t.Fatal(err)
	}
	// The next drain (triggered by a completion) evicts the victim.
	if _, err := p.Complete(ids[0]); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Get(victim.ID)
	if !ok {
		t.Fatal("victim record vanished")
	}
	if got.Status != StatusFailed || got.Error == "" {
		t.Fatalf("victim should have failed loudly: %+v", got)
	}
	if p.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after eviction", p.QueueDepth())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The finished ring must bound the placement map.
func TestPlacerCompletedRecordsBounded(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1, CompletedCap: 4})
	p := s.Placer()
	app := testLibrary(t, model.NLM).Apps()[0]
	var first string
	for i := 0; i < 10; i++ {
		rec, err := p.Submit(app)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rec.ID
		}
		if _, err := p.Complete(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.Get(first); ok {
		t.Fatal("oldest finished record should have been evicted")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPlacerSubmitComplete is the placer layer of a workflow engine
// on a large cell: each op submits a group of 8 tasks as one batch (Forest,
// MIBS with an 8-task queue) and completes all 8, so every op costs two
// scheduling passes and nine slot-pool updates on an otherwise idle
// cluster. The cost should not grow with the inventory.
func BenchmarkPlacerSubmitComplete(b *testing.B) {
	apps := testLibrary(b, model.Forest).Apps()
	group := make([]string, 8)
	for i := range group {
		group[i] = apps[i%len(apps)]
	}
	for _, machines := range []int{8, 1024, 4096, 10240} {
		b.Run(fmt.Sprintf("machines=%d", machines), func(b *testing.B) {
			s := newTestServer(b, model.Forest, Config{Machines: machines, Policy: "mibs", QueueLen: 8})
			p := s.Placer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := p.SubmitBatch(group)
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range out {
					if o.Err != nil || o.Placement.Status != StatusPlaced {
						b.Fatalf("submit: %v %+v", o.Err, o.Placement)
					}
					if _, err := p.Complete(o.Placement.ID); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
