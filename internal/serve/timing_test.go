package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracon/internal/model"
	"tracon/internal/monitor"
)

// Timing tests for the drift-to-swap loop and batch passes, driven on
// injected clocks and controlled goroutine interleavings rather than
// wall-clock sleeps. All must stay green under -race.

// waitUntil spins (with real sleeps — this is coordination, not timing
// under test) until cond holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetrainSingleFlightUnderConcurrentCompletions pins the single-flight
// contract: while one asynchronous retrain is in flight, any number of
// concurrent completion observations — including ones that re-fire the
// drift detector — must not launch a second retrain, and the manual
// trigger must refuse. After the cycle finishes the loop re-arms: a fresh
// baseline plus fresh drift launches cycle two.
func TestRetrainSingleFlightUnderConcurrentCompletions(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	ms, err := NewModelSet(lib, "mios", 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var retrains atomic.Int64
	sm := NewSwapManager(ms, func(recent map[string][]model.Sample) (*model.Library, error) {
		retrains.Add(1)
		<-gate // hold the retrain in flight until the test releases it
		return lib, nil
	}, monitor.DriftConfig{Baseline: 4, Window: 2, MeanShiftSigmas: 1, MinMeanShift: 0.01}, false)

	app := lib.Apps()[0]
	bg := make([]float64, model.NumFeatures)
	feed := func(ratio float64) {
		// predicted 1.0, observed ratio: relative error |ratio-1|.
		sm.ObserveCompletion(app, bg, 1.0, Observation{Runtime: ratio, IOPS: 1})
	}

	for i := 0; i < 4; i++ { // accurate baseline: error 0, stddev 0
		feed(1.0)
	}
	feed(3.0) // window of 2 needs two drifted points to fire
	feed(3.0) // detector fires here; the retrain parks on gate
	waitUntil(t, "first retrain launch", func() bool { return retrains.Load() == 1 })

	// Storm the manager while the retrain is parked: every one of these
	// observations would re-fire the detector, none may double-launch.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				feed(3.0)
			}
		}()
	}
	wg.Wait()
	if got := retrains.Load(); got != 1 {
		t.Fatalf("retrains launched during in-flight cycle = %d, want 1", got)
	}
	if err := sm.TriggerSwap(); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("manual trigger during in-flight retrain: err=%v, want 'in flight'", err)
	}

	close(gate)
	sm.Wait()
	if got := ms.Swaps(); got != 1 {
		t.Fatalf("swaps after first cycle = %d, want 1", got)
	}
	if got := ms.Generation(); got != 2 {
		t.Fatalf("generation after first cycle = %d, want 2", got)
	}

	// The cycle ended with a detector reset: the loop must re-arm from a
	// fresh baseline and allow a second retrain.
	for i := 0; i < 4; i++ {
		feed(1.0)
	}
	feed(3.0)
	feed(3.0)
	waitUntil(t, "second retrain launch", func() bool { return retrains.Load() == 2 })
	sm.Wait()
	if got := ms.Generation(); got != 3 {
		t.Fatalf("generation after second cycle = %d, want 3", got)
	}
}

// TestSwapDuringBatchPass races model hot-swaps against batch scheduling
// passes: requests snapshot a generation's view, so a swap landing mid-pass
// must neither corrupt placement bookkeeping nor fail any admission.
func TestSwapDuringBatchPass(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	s, err := New(lib, Config{
		Machines: 4, Policy: "mibs", QueueLen: 8,
		Retrain: func(map[string][]model.Sample) (*model.Library, error) { return lib, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placer()
	apps := lib.Apps()

	const passes = 20
	var wg sync.WaitGroup
	wg.Add(2)
	swapErrs := make(chan error, passes)
	go func() { // swapper: force a generation bump per pass
		defer wg.Done()
		for i := 0; i < passes; i++ {
			if err := s.Swapper().TriggerSwap(); err != nil {
				swapErrs <- err
			}
		}
	}()
	batchErrs := make(chan error, passes)
	go func() { // scheduler: one batch pass per iteration, then drain it
		defer wg.Done()
		batch := []string{apps[0], apps[1%len(apps)], apps[2%len(apps)]}
		for i := 0; i < passes; i++ {
			outcomes, err := p.SubmitBatch(batch)
			if err != nil {
				batchErrs <- err
				return
			}
			for _, o := range outcomes {
				if o.Err != nil {
					batchErrs <- o.Err
					return
				}
				if o.Placement.Status == StatusPlaced {
					if _, err := p.Complete(o.Placement.ID); err != nil {
						batchErrs <- err
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(swapErrs)
	close(batchErrs)
	for err := range swapErrs {
		t.Errorf("TriggerSwap during batch passes: %v", err)
	}
	for err := range batchErrs {
		t.Errorf("batch pass during swaps: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after swap/batch race: %v", err)
	}
	if got := s.ModelSet().Generation(); got != uint64(1+passes) {
		t.Fatalf("generation = %d, want %d (every manual swap must land)", got, 1+passes)
	}
}
