package xen

import (
	"fmt"
	"math"
	"sort"
)

// steadyReference is the fixed-point solver as it stood before Steady was
// made allocation-free: fresh slices on every iteration, sort.Slice inside
// waterfill, and the Dom0 per-op cost recomputed wherever it is used. It is
// kept frozen so the differential tests can require Steady to reproduce it
// bit for bit. Do not optimise it.
func (h *Host) steadyReference(apps []AppSpec) ([]AppSteady, error) {
	n := len(apps)
	if n == 0 {
		return nil, fmt.Errorf("xen: no applications")
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}

	soloLat := make([]float64, n) // per-request latency when alone (ms)
	soloRt := make([]float64, n)  // solo runtime of finite apps (s)
	for i, a := range apps {
		soloLat[i] = h.soloLatencyMs(&a)
		if !a.Endless {
			soloRt[i] = h.finiteRuntime(&a, 1, h.soloIOPSCeiling(&a))
		}
	}

	// Iterated state.
	lat := append([]float64(nil), soloLat...) // current latency estimate (ms)
	stretch := make([]float64, n)             // CPU stretch factor (>=1)
	iops := make([]float64, n)
	cpuUsed := make([]float64, n)
	ceils := make([]float64, n) // achievable IOPS ceiling, refreshed each iteration
	for i, a := range apps {
		stretch[i] = 1
		ceils[i] = h.soloIOPSCeiling(&a)
	}
	// Initialize rates from the solo solution.
	for i, a := range apps {
		iops[i] = h.initialIOPS(&a, soloLat[i], soloRt[i])
		cpuUsed[i] = h.initialCPU(&a, soloRt[i])
	}

	d := h.cfg.Damping
	for iter := 0; iter < h.cfg.MaxIters; iter++ {
		totalIOPS := 0.0
		for i := range apps {
			totalIOPS += iops[i]
		}

		// Dom0 load: if demand exceeds its capacity, all I/O is throttled
		// proportionally; whatever Dom0 does consume steals a fraction of
		// the guests' CPU capacity (interrupt/event-channel work).
		dom0Demand := 0.0
		for i, a := range apps {
			dom0Demand += iops[i] * h.dom0PerOpMs(&a) / 1000
		}
		dom0Throttle := 1.0
		if dom0Demand > h.cfg.Dom0CPUCap {
			dom0Throttle = h.cfg.Dom0CPUCap / dom0Demand
		}
		dom0Used := math.Min(dom0Demand, h.cfg.Dom0CPUCap)
		guestCap := h.cfg.GuestCPUCap - h.cfg.Dom0StealFrac*dom0Used
		if guestCap < 0.05*h.cfg.GuestCPUCap {
			guestCap = 0.05 * h.cfg.GuestCPUCap
		}

		// Guest CPU water-fill over current demands.
		demands := make([]float64, n)
		for i, a := range apps {
			demands[i] = h.cpuDemand(&a, lat[i])
		}
		alloc := waterfillReference(demands, guestCap)

		// Per-app effective service time (device cost at disrupted
		// sequentiality, plus the Dom0 cross delay, during which the disk
		// sits idle on this stream).
		newLat := make([]float64, n)
		newStretch := make([]float64, n)
		service := make([]float64, n) // ms of device occupancy per request
		desired := make([]float64, n) // requests/second the app would issue unconstrained
		for i, a := range apps {
			othersIOPS := totalIOPS - iops[i]
			otherShare := 0.0
			if totalIOPS > 1e-12 {
				otherShare = othersIOPS / totalIOPS
			}
			cEff := h.mixedCostMs(&a, h.effSeq(&a, iops[i], othersIOPS))

			otherCPU := 0.0
			for j := range apps {
				if j != i {
					otherCPU += cpuUsed[j]
				}
			}
			crossDelay := h.cfg.CrossDelayMs * otherCPU * otherShare

			service[i] = cEff + crossDelay
			newLat[i] = service[i] + h.dom0PerOpMs(&a)/dom0Throttle

			if alloc[i] > 1e-12 && demands[i] > alloc[i] {
				newStretch[i] = demands[i] / alloc[i]
			} else {
				newStretch[i] = 1
			}

			closedLoop := a.depth() * 1000 / newLat[i]
			if a.Endless {
				desired[i] = math.Min(a.TargetReadRate+a.TargetWriteRate, closedLoop)
			} else if a.TotalOps() > 0 {
				rtUnc := h.finiteRuntime(&a, newStretch[i], closedLoop)
				desired[i] = a.TotalOps() / rtUnc
			}
		}

		// The disk scheduler shares device time fairly among demanding
		// streams: each stream's long-run busy-time entitlement is
		// water-filled from its *average* demand...
		wantTime := make([]float64, n)
		for i := range apps {
			wantTime[i] = desired[i] * service[i] / 1000
		}
		tAlloc := waterfillReference(wantTime, 1.0)
		totalAlloc := 0.0
		for _, v := range tAlloc {
			totalAlloc += v
		}

		// ...but during its own I/O phases an app bursts into whatever
		// device time the others leave idle. Using the average entitlement
		// as the burst ceiling would double-count the app's CPU and think
		// time (a mostly-idle mail server would appear to throttle its own
		// bursts).
		maxDelta := 0.0
		for i, a := range apps {
			idleShare := 1 - (totalAlloc - tAlloc[i])
			if idleShare < 0.05 {
				idleShare = 0.05
			}
			ioCeiling := a.depth() * 1000 / newLat[i] // closed loop on latency
			if service[i] > 1e-12 {
				ioCeiling = math.Min(ioCeiling, idleShare*1000/service[i])
			}
			ioCeiling *= dom0Throttle
			ceils[i] = (1-d)*ceils[i] + d*ioCeiling
			ioCeiling = ceils[i]
			var nIOPS, nCPU float64
			if a.Endless {
				nIOPS = math.Min(desired[i], ioCeiling)
				nCPU = alloc[i]
				if a.CPUDemand < nCPU {
					nCPU = a.CPUDemand
				}
			} else {
				rt := h.finiteRuntime(&a, newStretch[i], ioCeiling)
				nIOPS = a.TotalOps() / rt
				nCPU = a.CPUSeconds / rt // actual CPU seconds consumed per wall second
			}
			for _, delta := range []float64{math.Abs(nIOPS - iops[i]), math.Abs(nCPU - cpuUsed[i]), math.Abs(newLat[i] - lat[i])} {
				if delta > maxDelta {
					maxDelta = delta
				}
			}
			iops[i] = (1-d)*iops[i] + d*nIOPS
			cpuUsed[i] = (1-d)*cpuUsed[i] + d*nCPU
			lat[i] = (1-d)*lat[i] + d*newLat[i]
			stretch[i] = (1-d)*stretch[i] + d*newStretch[i]
		}
		if maxDelta < 1e-10 {
			break
		}
	}

	out := make([]AppSteady, n)
	for i, a := range apps {
		rf := a.ReadFraction()
		s := AppSteady{
			IOPS:        iops[i],
			ReadPerSec:  iops[i] * rf,
			WritePerSec: iops[i] * (1 - rf),
			GuestCPU:    cpuUsed[i],
			Dom0CPU:     iops[i] * h.dom0PerOpMs(&a) / 1000,
			LatencyMs:   lat[i],
		}
		if a.Endless {
			s.Runtime = math.Inf(1)
			s.Slowdown = 1
			s.ProgressRate = 1
		} else {
			rt := h.finiteRuntime(&a, stretch[i], ceils[i])
			s.Runtime = rt
			s.Slowdown = rt / soloRt[i]
			if s.Slowdown < 1 {
				// Numerical fuzz can land microscopically below 1; a co-run
				// can never beat solo in this model.
				s.Slowdown = 1
				s.Runtime = soloRt[i]
			}
			s.ProgressRate = 1 / s.Slowdown
		}
		out[i] = s
	}
	return out, nil
}

// waterfillReference is the allocating waterfill that steadyReference
// calls; frozen alongside it.
func waterfillReference(demands []float64, capacity float64) []float64 {
	n := len(demands)
	alloc := make([]float64, n)
	if n == 0 || capacity <= 0 {
		return alloc
	}
	type entry struct {
		d float64
		i int
	}
	order := make([]entry, n)
	for i, d := range demands {
		order[i] = entry{d: d, i: i}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].d < order[b].d })
	remaining := capacity
	left := n
	for _, e := range order {
		share := remaining / float64(left)
		give := e.d
		if give > share {
			give = share
		}
		alloc[e.i] = give
		remaining -= give
		left--
	}
	return alloc
}
