package xen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomSpec draws a valid application: an endless background generator or
// a finite app, over the ranges the profiling grid and the benchmarks use
// and a little beyond (no CPU, no I/O, pure reads, pure writes).
func randomSpec(rng *rand.Rand, name string) AppSpec {
	a := AppSpec{
		Name:       name,
		ReqSizeKB:  []float64{4, 16, 64, 256}[rng.Intn(4)] * (0.5 + rng.Float64()),
		Seq:        rng.Float64(),
		MaxIODepth: float64(rng.Intn(9)),
	}
	if rng.Intn(5) == 0 {
		a.Seq = float64(rng.Intn(2)) // fully random or fully sequential
	}
	if rng.Intn(2) == 0 {
		a.Endless = true
		a.CPUDemand = rng.Float64()
		if rng.Intn(4) > 0 {
			a.TargetReadRate = math.Pow(10, 4*rng.Float64())
		}
		if rng.Intn(3) == 0 {
			a.TargetWriteRate = math.Pow(10, 4*rng.Float64())
		}
		if rng.Intn(8) == 0 {
			a.TargetReadRate = 1e9 // an I/O hog that saturates the device
		}
		return a
	}
	a.CPUSeconds = 300 * rng.Float64()
	if rng.Intn(4) > 0 {
		a.ReadOps = math.Floor(math.Pow(10, 6*rng.Float64()))
	}
	if rng.Intn(3) == 0 {
		a.WriteOps = math.Floor(math.Pow(10, 5*rng.Float64()))
	}
	if rng.Intn(3) == 0 {
		a.ThinkSeconds = 100 * rng.Float64()
	}
	if a.CPUSeconds == 0 && a.ReadOps == 0 && a.WriteOps == 0 {
		a.CPUSeconds = 1
	}
	return a
}

// steadyBits renders every field of a solution as its IEEE-754 bits, so a
// difference in the last place (or a NaN payload) shows.
func steadyBits(s AppSteady) [9]uint64 {
	return [9]uint64{
		math.Float64bits(s.Runtime), math.Float64bits(s.Slowdown),
		math.Float64bits(s.ProgressRate), math.Float64bits(s.IOPS),
		math.Float64bits(s.ReadPerSec), math.Float64bits(s.WritePerSec),
		math.Float64bits(s.GuestCPU), math.Float64bits(s.Dom0CPU),
		math.Float64bits(s.LatencyMs),
	}
}

func diffHosts(t *testing.T) []*Host {
	t.Helper()
	var hosts []*Host
	for _, d := range []DiskParams{HDD(), ISCSI(), SSD(), RAID0(4)} {
		cfg := DefaultHost()
		cfg.Disk = d
		h, err := NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return hosts
}

// TestSteadyMatchesReference requires the allocation-free solver to
// reproduce the frozen allocating one bit for bit on seeded random
// co-locations of one to four apps on every storage model, duplicated apps
// included (equal demands exercise waterfill's tie order).
func TestSteadyMatchesReference(t *testing.T) {
	hosts := diffHosts(t)
	cases := 4000
	if testing.Short() {
		cases = 400
	}
	rng := rand.New(rand.NewSource(20111113))
	for c := 0; c < cases; c++ {
		h := hosts[c%len(hosts)]
		n := 1 + rng.Intn(4)
		apps := make([]AppSpec, n)
		for i := range apps {
			apps[i] = randomSpec(rng, fmt.Sprintf("app%d", i))
			if i > 0 && rng.Intn(4) == 0 {
				apps[i] = apps[rng.Intn(i)] // a duplicated app, same name too
			}
		}
		want, werr := h.steadyReference(apps)
		got, gerr := h.Steady(apps)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("case %d %s: error %v, reference %v", c, h.cfg.Disk.Name, gerr, werr)
		}
		for i := range want {
			if steadyBits(got[i]) != steadyBits(want[i]) {
				t.Fatalf("case %d %s app %d (%+v):\n got  %+v\n want %+v",
					c, h.cfg.Disk.Name, i, apps[i], got[i], want[i])
			}
		}
	}
}

// TestWaterfillMatchesReference compares waterfill with the sort.Slice
// version for every size up to pdqsort's insertion-sort cutoff, with
// demands drawn from a small set so that ties are common, and with output
// and scratch slices that hold stale values from the previous call.
func TestWaterfillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	levels := []float64{0, 0.05, 0.1, 1.0 / 3, 0.5, 1, 2}
	for n := 1; n <= 12; n++ {
		alloc := make([]float64, n)
		order := make([]int, n)
		for trial := 0; trial < 2000; trial++ {
			demands := make([]float64, n)
			for i := range demands {
				if rng.Intn(2) == 0 {
					demands[i] = levels[rng.Intn(len(levels))]
				} else {
					demands[i] = rng.Float64() * 2
				}
			}
			capacity := rng.Float64() * 3
			switch rng.Intn(10) {
			case 0:
				capacity = 0
			case 1:
				capacity = -1
			case 2:
				capacity = 1
			}
			want := waterfillReference(demands, capacity)
			waterfill(alloc, demands, capacity, order)
			for i := range want {
				if math.Float64bits(alloc[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d waterfill(%v, %v) = %v want %v", n, demands, capacity, alloc, want)
				}
			}
		}
	}
}

// TestSteadyAllocs pins Steady to its three per-call allocations (the
// output, the vector backing array and the order buffer), independent of
// how many fixed-point iterations run.
func TestSteadyAllocs(t *testing.T) {
	for _, iters := range []int{1, 3000} {
		cfg := DefaultHost()
		cfg.MaxIters = iters
		cfg.Damping = 0.01 // slow convergence: the loop runs long
		h, err := NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, apps := range [][]AppSpec{
			{seqReader("sr")},
			{seqReader("sr"), ioHogBG("bg")},
			{seqReader("sr"), cpuHog("cpu", 0.9), ioHogBG("b1"), ioHogBG("b2")},
		} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := h.Steady(apps); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 3 {
				t.Errorf("MaxIters=%d, %d apps: %v allocs per Steady, want ≤ 3", iters, len(apps), allocs)
			}
		}
	}
}
