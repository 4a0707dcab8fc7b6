package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Offline trace analysis: everything cmd/tracontrace prints is computed
// here, from a RunTrace alone, so the analyses are unit-testable and the
// CLI stays a thin shell. All outputs are deterministically ordered
// (sorted by app/machine/task, never by map iteration).

// TaskSpan is one task's reconstructed lifecycle.
type TaskSpan struct {
	Task      int64
	App       string
	Machine   int
	Slot      int
	Enqueued  float64
	Start     float64
	Finish    float64
	Work      float64 // solo-seconds of work
	Predicted float64 // placement-time runtime forecast
	// Completed reports that the trace holds the task's completion; tasks
	// cut off by the horizon (or the ring) have only a prefix.
	Completed bool
	Placed    bool
}

// Wait is the task's queueing delay (valid when Placed).
func (s TaskSpan) Wait() float64 { return s.Start - s.Enqueued }

// Runtime is the realized execution time (valid when Completed).
func (s TaskSpan) Runtime() float64 { return s.Finish - s.Start }

// Dilation is the execution time lost to interference: realized runtime
// minus solo work (valid when Completed).
func (s TaskSpan) Dilation() float64 { return s.Runtime() - s.Work }

// TaskSpans reconstructs per-task lifecycles from the event stream,
// sorted by task ID. Tasks whose enqueue fell out of the ring inherit
// their place time (zero wait) rather than being dropped.
func (r *RunTrace) TaskSpans() []TaskSpan {
	spans := map[int64]*TaskSpan{}
	get := func(id int64, app string) *TaskSpan {
		s, ok := spans[id]
		if !ok {
			s = &TaskSpan{Task: id, App: app, Enqueued: -1}
			spans[id] = s
		}
		return s
	}
	for _, ev := range r.Events {
		switch {
		case ev.Enqueue != nil:
			get(ev.Enqueue.Task, ev.Enqueue.App).Enqueued = ev.T
		case ev.Place != nil:
			p := ev.Place
			s := get(p.Task, p.App)
			s.Machine, s.Slot = p.Machine, p.Slot
			s.Start, s.Work, s.Predicted = ev.T, p.Work, p.Predicted
			s.Placed = true
			if s.Enqueued < 0 {
				s.Enqueued = ev.T
			}
		case ev.Complete != nil:
			c := ev.Complete
			s := get(c.Task, c.App)
			s.Finish = ev.T
			s.Completed = true
			if !s.Placed {
				// The place event fell out of the ring; recover what the
				// completion carries.
				s.Machine, s.Slot, s.Start = c.Machine, c.Slot, c.Start
				s.Enqueued = c.Start - c.Wait
				s.Placed = true
			}
		}
	}
	out := make([]TaskSpan, 0, len(spans))
	for _, s := range spans {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// AppBreakdown aggregates completed tasks per application.
type AppBreakdown struct {
	App       string
	N         int
	MeanWait  float64
	MeanExec  float64
	MeanSolo  float64
	MeanDilat float64 // mean (exec − solo): time lost to interference
	MaxWait   float64
}

// AppBreakdowns summarizes completed tasks per app, sorted by app name.
func AppBreakdowns(spans []TaskSpan) []AppBreakdown {
	acc := map[string]*AppBreakdown{}
	for _, s := range spans {
		if !s.Completed {
			continue
		}
		a, ok := acc[s.App]
		if !ok {
			a = &AppBreakdown{App: s.App}
			acc[s.App] = a
		}
		a.N++
		a.MeanWait += s.Wait()
		a.MeanExec += s.Runtime()
		a.MeanSolo += s.Work
		a.MeanDilat += s.Dilation()
		if w := s.Wait(); w > a.MaxWait {
			a.MaxWait = w
		}
	}
	out := make([]AppBreakdown, 0, len(acc))
	for _, a := range acc {
		n := float64(a.N)
		a.MeanWait /= n
		a.MeanExec /= n
		a.MeanSolo /= n
		a.MeanDilat /= n
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// TopWaits returns the k longest-waiting placed tasks, longest first
// (ties broken by task ID for determinism).
func TopWaits(spans []TaskSpan, k int) []TaskSpan {
	var placed []TaskSpan
	for _, s := range spans {
		if s.Placed {
			placed = append(placed, s)
		}
	}
	sort.Slice(placed, func(i, j int) bool {
		wi, wj := placed[i].Wait(), placed[j].Wait()
		if wi != wj {
			return wi > wj
		}
		return placed[i].Task < placed[j].Task
	})
	if k > 0 && len(placed) > k {
		placed = placed[:k]
	}
	return placed
}

// MachineTimeline summarizes one machine's contention over the trace.
type MachineTimeline struct {
	Machine int
	// Busy is slot-seconds with a task running; Contended is wall-seconds
	// with both VMs busy.
	Busy      float64
	Contended float64
	// Lost is the solo-seconds of progress lost to interference:
	// Σ (1 − rate) × segment length over all execution segments.
	Lost float64
	// Segments counts execution segments (repricings) on the machine.
	Segments int
}

// MachineTimelines reconstructs per-machine contention from segment and
// completion events, sorted by machine index. The final segment on each
// slot is closed at the trace's last event time when no completion closes
// it (horizon cut).
func (r *RunTrace) MachineTimelines() []MachineTimeline {
	type key struct{ m, s int }
	type open struct {
		start float64
		rate  float64
	}
	openSegs := map[key]open{}
	acc := map[int]*MachineTimeline{}
	get := func(m int) *MachineTimeline {
		t, ok := acc[m]
		if !ok {
			t = &MachineTimeline{Machine: m}
			acc[m] = t
		}
		return t
	}
	var lastT float64
	closeSeg := func(k key, end float64) {
		o, ok := openSegs[k]
		if !ok {
			return
		}
		dur := end - o.start
		if dur > 0 {
			t := get(k.m)
			t.Busy += dur
			t.Lost += (1 - o.rate) * dur
			if _, both := openSegs[key{k.m, 1 - k.s}]; both {
				t.Contended += dur
			}
		}
		delete(openSegs, k)
	}
	for _, ev := range r.Events {
		lastT = ev.T
		switch {
		case ev.Segment != nil:
			s := ev.Segment
			k := key{s.Machine, s.Slot}
			closeSeg(k, ev.T)
			openSegs[k] = open{start: ev.T, rate: s.Rate}
			get(s.Machine).Segments++
		case ev.Complete != nil:
			closeSeg(key{ev.Complete.Machine, ev.Complete.Slot}, ev.T)
		}
	}
	keys := make([]key, 0, len(openSegs))
	for k := range openSegs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].m != keys[j].m {
			return keys[i].m < keys[j].m
		}
		return keys[i].s < keys[j].s
	})
	for _, k := range keys {
		closeSeg(k, lastT)
	}
	out := make([]MachineTimeline, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// Contention note: closeSeg checks both-slots-busy at close time using the
// sibling's open segment, which exists exactly when the sibling was
// running through this interval (any sibling membership change would have
// closed and reopened this segment too, because the engine reprices both
// slots together).

// CPHop is one hop of the completion-time critical path.
type CPHop struct {
	Task   int64
	App    string
	Reason string // "dependency", "slot", or "arrival"
	Wait   float64
	Exec   float64
}

// CriticalPath walks back from the last-finishing task: through its
// latest-finishing workflow dependency when one exists, else through the
// task whose completion freed the slot it started on (queueing pressure),
// stopping at a task that started at its arrival. Hops are returned in
// chronological order.
func (r *RunTrace) CriticalPath() []CPHop {
	spans := r.TaskSpans()
	byID := map[int64]TaskSpan{}
	deps := map[int64][]int64{}
	for _, s := range spans {
		byID[s.Task] = s
	}
	// prevOnSlot[(m,s)] at a given start time: the completion on that slot
	// with the largest finish ≤ start. Collect completions per slot.
	type key struct{ m, s int }
	finishes := map[key][]TaskSpan{}
	for _, ev := range r.Events {
		if ev.Arrival != nil && len(ev.Arrival.Deps) > 0 {
			deps[ev.Arrival.Task] = ev.Arrival.Deps
		}
	}
	var last *TaskSpan
	for i := range spans {
		s := &spans[i]
		if !s.Completed {
			continue
		}
		k := key{s.Machine, s.Slot}
		finishes[k] = append(finishes[k], *s)
		if last == nil || s.Finish > last.Finish ||
			(s.Finish == last.Finish && s.Task < last.Task) {
			last = s
		}
	}
	for k := range finishes {
		f := finishes[k]
		sort.Slice(f, func(i, j int) bool { return f[i].Finish < f[j].Finish })
		finishes[k] = f
	}
	const eps = 1e-9
	var rev []CPHop
	seen := map[int64]bool{}
	cur := last
	for cur != nil && !seen[cur.Task] {
		seen[cur.Task] = true
		hop := CPHop{Task: cur.Task, App: cur.App, Wait: cur.Wait(), Exec: cur.Runtime(), Reason: "arrival"}
		var next *TaskSpan
		// Prefer the workflow edge: the latest-finishing dependency.
		for _, d := range deps[cur.Task] {
			ds, ok := byID[d]
			if !ok || !ds.Completed {
				continue
			}
			if next == nil || ds.Finish > next.Finish {
				c := ds
				next = &c
			}
		}
		if next != nil {
			hop.Reason = "dependency"
		} else if cur.Wait() > eps {
			// Queueing: the task waited for its slot; charge the previous
			// occupant (latest completion on the slot at or before start).
			f := finishes[key{cur.Machine, cur.Slot}]
			idx := sort.Search(len(f), func(i int) bool { return f[i].Finish > cur.Start+eps })
			for i := idx - 1; i >= 0; i-- {
				if f[i].Task != cur.Task {
					c := f[i]
					next = &c
					hop.Reason = "slot"
					break
				}
			}
		}
		rev = append(rev, hop)
		cur = next
	}
	// Chronological order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// MachineDowntime is one machine's aggregate crash record.
type MachineDowntime struct {
	Machine int
	// Downs counts crash transitions; Downtime is the wall-seconds spent
	// down (an unrecovered crash is closed at the trace's last event time).
	Downs    int
	Downtime float64
}

// FaultReport summarizes a fault-injected run's recovery behaviour.
type FaultReport struct {
	// Counts is events per fault kind (fail, timeout, evict, retry, lost,
	// machine_down, machine_up), sorted by kind.
	Counts map[string]int
	// Downtimes is the per-machine crash record, sorted by machine.
	Downtimes []MachineDowntime
	// RetriedTasks and LostTasks count distinct tasks that were retried at
	// least once and abandoned, respectively.
	RetriedTasks int
	LostTasks    int
}

// Empty reports that the trace holds no fault events at all.
func (f *FaultReport) Empty() bool { return len(f.Counts) == 0 }

// Faults reconstructs the run's fault-recovery summary from its fault
// events (empty for fault-free traces).
func (r *RunTrace) Faults() *FaultReport {
	rep := &FaultReport{Counts: map[string]int{}}
	downAt := map[int]float64{}
	acc := map[int]*MachineDowntime{}
	retried := map[int64]bool{}
	lost := map[int64]bool{}
	var lastT float64
	for _, ev := range r.Events {
		lastT = ev.T
		if ev.Fault == nil {
			continue
		}
		rep.Counts[ev.Kind]++
		switch ev.Kind {
		case "machine_down":
			m := ev.Fault.Machine
			d, ok := acc[m]
			if !ok {
				d = &MachineDowntime{Machine: m}
				acc[m] = d
			}
			d.Downs++
			downAt[m] = ev.T
		case "machine_up":
			m := ev.Fault.Machine
			if at, ok := downAt[m]; ok {
				acc[m].Downtime += ev.T - at
				delete(downAt, m)
			}
		case "retry":
			retried[ev.Fault.Task] = true
		case "lost":
			lost[ev.Fault.Task] = true
		}
	}
	for m, at := range downAt {
		acc[m].Downtime += lastT - at
	}
	for _, d := range acc {
		rep.Downtimes = append(rep.Downtimes, *d)
	}
	sort.Slice(rep.Downtimes, func(i, j int) bool {
		return rep.Downtimes[i].Machine < rep.Downtimes[j].Machine
	})
	rep.RetriedTasks = len(retried)
	rep.LostTasks = len(lost)
	return rep
}

// ServeAppStats aggregates one application's serving-path lifecycle.
type ServeAppStats struct {
	App       string
	Admits    int
	Places    int
	Completes int
	// MeanWait is the mean admit→place delay, MeanLifetime the mean
	// admit→complete span (seconds), over tasks whose events are all in
	// the ring.
	MeanWait     float64
	MeanLifetime float64
}

// ServeSummary is the offline analysis of a tracond trace: span counts by
// kind, per-app lifecycle joins (by placement ID), and scheduling-pass
// duration stats.
type ServeSummary struct {
	Kinds map[string]int
	Apps  []ServeAppStats
	// Passes counts batch_pass spans; PassMeanS/PassMaxS their durations.
	Passes    int
	PassMeanS float64
	PassMaxS  float64
}

// IsServe reports whether the run carries serving-path spans.
func (r *RunTrace) IsServe() bool {
	for _, ev := range r.Events {
		if ev.Serve != nil {
			return true
		}
	}
	return false
}

// ServeSummarize computes the serving-run analysis.
func (r *RunTrace) ServeSummarize() ServeSummary {
	sum := ServeSummary{Kinds: map[string]int{}}
	type life struct {
		app                    string
		admitT, placeT, endT   float64
		admit, placed, compled bool
	}
	lives := map[string]*life{}
	get := func(task, app string) *life {
		l, ok := lives[task]
		if !ok {
			l = &life{app: app}
			lives[task] = l
		}
		if l.app == "" {
			l.app = app
		}
		return l
	}
	for _, ev := range r.Events {
		sv := ev.Serve
		if sv == nil {
			continue
		}
		sum.Kinds[ev.Kind]++
		switch ev.Kind {
		case "admit":
			l := get(sv.Task, sv.App)
			l.admit, l.admitT = true, ev.T
		case "place":
			l := get(sv.Task, sv.App)
			l.placed, l.placeT = true, ev.T
		case "complete":
			l := get(sv.Task, sv.App)
			l.compled, l.endT = true, ev.T
		case "batch_pass":
			sum.Passes++
			sum.PassMeanS += sv.DurS
			if sv.DurS > sum.PassMaxS {
				sum.PassMaxS = sv.DurS
			}
		}
	}
	if sum.Passes > 0 {
		sum.PassMeanS /= float64(sum.Passes)
	}
	apps := map[string]*ServeAppStats{}
	for _, l := range lives {
		a, ok := apps[l.app]
		if !ok {
			a = &ServeAppStats{App: l.app}
			apps[l.app] = a
		}
		if l.admit {
			a.Admits++
		}
		if l.placed {
			a.Places++
		}
		if l.compled {
			a.Completes++
		}
		if l.admit && l.placed {
			a.MeanWait += l.placeT - l.admitT
		}
		if l.admit && l.compled {
			a.MeanLifetime += l.endT - l.admitT
		}
	}
	for _, a := range apps {
		if n := min(a.Admits, a.Places); n > 0 {
			a.MeanWait /= float64(n)
		}
		if n := min(a.Admits, a.Completes); n > 0 {
			a.MeanLifetime /= float64(n)
		}
		sum.Apps = append(sum.Apps, *a)
	}
	sort.Slice(sum.Apps, func(i, j int) bool { return sum.Apps[i].App < sum.Apps[j].App })
	return sum
}

// summarizeServe writes the serving-run report.
func (r *RunTrace) summarizeServe(w io.Writer) {
	sum := r.ServeSummarize()
	fmt.Fprintf(w, "serving-path spans:\n")
	kinds := make([]string, 0, len(sum.Kinds))
	for k := range sum.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-14s %6d\n", k, sum.Kinds[k])
	}
	fmt.Fprintf(w, "\nper-app lifecycle (admit→place→complete, joined by placement ID):\n")
	fmt.Fprintf(w, "  %-10s %8s %8s %10s %12s %12s\n", "app", "admits", "places", "completes", "mean wait", "mean life")
	for _, a := range sum.Apps {
		fmt.Fprintf(w, "  %-10s %8d %8d %10d %10.2fms %10.2fms\n",
			a.App, a.Admits, a.Places, a.Completes, a.MeanWait*1e3, a.MeanLifetime*1e3)
	}
	if sum.Passes > 0 {
		fmt.Fprintf(w, "\nscheduling passes: %d (mean %.2fms, max %.2fms)\n",
			sum.Passes, sum.PassMeanS*1e3, sum.PassMaxS*1e3)
	}
}

// Summarize writes the CLI's full human-readable analysis of one run.
func (r *RunTrace) Summarize(w io.Writer, topK int) {
	fmt.Fprintf(w, "run %s\n", r.Label)
	fmt.Fprintf(w, "  scheduler %s, %d machines, %d events (%d dropped)\n",
		r.Scheduler, r.Machines, r.Total, r.Dropped)
	if r.IsServe() {
		r.summarizeServe(w)
		return
	}
	spans := r.TaskSpans()
	completed := 0
	for _, s := range spans {
		if s.Completed {
			completed++
		}
	}
	fmt.Fprintf(w, "  tasks in trace: %d (%d completed)\n\n", len(spans), completed)

	fmt.Fprintf(w, "per-app breakdown (completed tasks):\n")
	fmt.Fprintf(w, "  %-10s %6s %10s %10s %10s %10s %10s\n",
		"app", "n", "wait", "exec", "solo", "dilation", "max wait")
	for _, a := range AppBreakdowns(spans) {
		fmt.Fprintf(w, "  %-10s %6d %9.1fs %9.1fs %9.1fs %9.1fs %9.1fs\n",
			a.App, a.N, a.MeanWait, a.MeanExec, a.MeanSolo, a.MeanDilat, a.MaxWait)
	}

	fmt.Fprintf(w, "\ntop %d longest-waiting tasks:\n", topK)
	fmt.Fprintf(w, "  %-8s %-10s %10s %10s %10s\n", "task", "app", "wait", "exec", "machine/vm")
	for _, s := range TopWaits(spans, topK) {
		exec := "-"
		if s.Completed {
			exec = fmt.Sprintf("%.1fs", s.Runtime())
		}
		fmt.Fprintf(w, "  %-8d %-10s %9.1fs %10s %7d/%d\n",
			s.Task, s.App, s.Wait(), exec, s.Machine, s.Slot)
	}

	fmt.Fprintf(w, "\nper-machine contention:\n")
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %9s\n", "machine", "busy slot-s", "contended s", "lost solo-s", "segments")
	tls := r.MachineTimelines()
	const maxMachines = 20
	shown := tls
	if len(shown) > maxMachines {
		shown = shown[:maxMachines]
	}
	for _, t := range shown {
		fmt.Fprintf(w, "  %-8d %12.1f %12.1f %12.1f %9d\n",
			t.Machine, t.Busy, t.Contended, t.Lost, t.Segments)
	}
	if len(tls) > len(shown) {
		var busy, cont, lost float64
		for _, t := range tls {
			busy += t.Busy
			cont += t.Contended
			lost += t.Lost
		}
		fmt.Fprintf(w, "  (… %d more machines; totals: busy %.1f, contended %.1f, lost %.1f)\n",
			len(tls)-len(shown), busy, cont, lost)
	}

	if faults := r.Faults(); !faults.Empty() {
		fmt.Fprintf(w, "\nfault injection & recovery:\n")
		kinds := make([]string, 0, len(faults.Counts))
		for k := range faults.Counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "  %-14s %6d\n", k, faults.Counts[k])
		}
		if len(faults.Downtimes) > 0 {
			fmt.Fprintf(w, "  machine downtime:\n")
			for _, d := range faults.Downtimes {
				fmt.Fprintf(w, "    machine %-4d %d crash(es), %.1fs down\n", d.Machine, d.Downs, d.Downtime)
			}
		}
		fmt.Fprintf(w, "  tasks retried: %d, tasks lost: %d\n", faults.RetriedTasks, faults.LostTasks)
	}

	cp := r.CriticalPath()
	fmt.Fprintf(w, "\ncompletion-time critical path (%d hops):\n", len(cp))
	for _, h := range cp {
		fmt.Fprintf(w, "  task %-6d %-10s wait %8.1fs  exec %8.1fs  via %s\n",
			h.Task, h.App, h.Wait, h.Exec, h.Reason)
	}
	if len(cp) > 0 {
		var wait, exec float64
		for _, h := range cp {
			wait += h.Wait
			exec += h.Exec
		}
		fmt.Fprintf(w, "  path total: wait %.1fs + exec %.1fs = %.1fs\n", wait, exec, wait+exec)
	}
}

// FindRuns filters runs whose label contains the substring (all runs when
// the filter is empty), preserving order.
func FindRuns(runs []*RunTrace, filter string) []*RunTrace {
	if filter == "" {
		return runs
	}
	var out []*RunTrace
	for _, r := range runs {
		if strings.Contains(r.Label, filter) {
			out = append(out, r)
		}
	}
	return out
}
