package tracon

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark per exhibit) and adds ablation benches for the
// design choices DESIGN.md calls out. Key reproduced quantities are
// attached to each bench via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the experiment log. The heavyweight dynamic sweeps run with
// reduced dimensions here; cmd/traconbench runs them at paper scale.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tracon/internal/experiments"
	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func experimentEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		e, err := experiments.NewEnv(1)
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

// BenchmarkTable1 regenerates Table 1 (interference characterization).
func BenchmarkTable1(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows["seqread"][1], "seqread-vs-io-high-x")
		b.ReportMetric(res.Rows["seqread"][3], "seqread-vs-both-high-x")
	}
}

// BenchmarkFig3Runtime regenerates Fig 3(a): runtime prediction errors.
func BenchmarkFig3Runtime(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanError(model.Runtime, model.NLM)*100, "nlm-err-%")
		b.ReportMetric(res.MeanError(model.Runtime, model.LM)*100, "lm-err-%")
		b.ReportMetric(res.MeanError(model.Runtime, model.WMM)*100, "wmm-err-%")
	}
}

// BenchmarkFig3IOPS regenerates Fig 3(b): IOPS prediction errors.
func BenchmarkFig3IOPS(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanError(model.IOPS, model.NLM)*100, "nlm-err-%")
		b.ReportMetric(res.MeanError(model.IOPS, model.LM)*100, "lm-err-%")
		b.ReportMetric(res.MeanError(model.IOPS, model.WMM)*100, "wmm-err-%")
	}
}

// BenchmarkFig4 regenerates Fig 4: scheduling with different models.
func BenchmarkFig4(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(e, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[model.NLM].Mean, "nlm-speedup")
		b.ReportMetric(res.IOBoost[model.NLM].Mean, "nlm-ioboost")
	}
}

// BenchmarkFig5 regenerates Fig 5: predicted minimum runtimes.
func BenchmarkFig5(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(e)
		if err != nil {
			b.Fatal(err)
		}
		// Mean ratio of predicted min to measured min across apps.
		sum := 0.0
		for _, r := range res.Rows {
			sum += r.PredictedMin / r.MeasuredMin
		}
		b.ReportMetric(sum/float64(len(res.Rows)), "predmin/measmin")
	}
}

// BenchmarkFig6 regenerates Fig 6: predicted maximum IOPS.
func BenchmarkFig6(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(e)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range res.Rows {
			sum += r.PredictedMax / r.MeasuredMax
		}
		b.ReportMetric(sum/float64(len(res.Rows)), "predmax/measmax")
	}
}

// BenchmarkFig7 regenerates Fig 7: online model learning.
func BenchmarkFig7(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InitialErr*100, "initial-err-%")
		b.ReportMetric(res.ShockErr*100, "shock-err-%")
		b.ReportMetric(res.FinalErr*100, "final-err-%")
	}
}

// BenchmarkFig8 regenerates Fig 8: static-workload speedups (reduced
// machine range under -short).
func BenchmarkFig8(b *testing.B) {
	e := experimentEnv(b)
	machines := []int{8, 64, 256, 1024}
	if testing.Short() {
		machines = []int{8, 64}
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(e, machines, 3)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := res.Cell(machines[len(machines)-1], workload.MediumIO); ok {
			b.ReportMetric(c.SpeedupRT, "medium-speedup")
			b.ReportMetric(c.IOBoost, "medium-ioboost")
		}
	}
}

// benchDynamic shares the reduced dynamic dimensions of Figs 9–12.
func benchDynamicDims() (lambdas []float64, hours float64, machines []int) {
	if testing.Short() {
		return []float64{2, 50}, 1, []int{8, 64}
	}
	return []float64{2, 10, 50, 100}, 2, []int{8, 64, 256}
}

// BenchmarkFig9 regenerates Fig 9: schedulers vs arrival rate.
func BenchmarkFig9(b *testing.B) {
	e := experimentEnv(b)
	lambdas, hours, _ := benchDynamicDims()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(e, lambdas, hours)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := res.Cell("MIBS8", 64, lambdas[len(lambdas)-1], workload.MediumIO); ok {
			b.ReportMetric(c.Normalized, "mibs8-vs-fifo")
		}
		if c, ok := res.Cell("MIX8", 64, lambdas[len(lambdas)-1], workload.MediumIO); ok {
			b.ReportMetric(c.Normalized, "mix8-vs-fifo")
		}
	}
}

// BenchmarkFig10 regenerates Fig 10: MIBS queue lengths vs arrival rate.
func BenchmarkFig10(b *testing.B) {
	e := experimentEnv(b)
	lambdas, hours, _ := benchDynamicDims()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(e, lambdas, hours)
		if err != nil {
			b.Fatal(err)
		}
		lam := lambdas[len(lambdas)-1]
		if c, ok := res.Cell("MIBS8", 64, lam, workload.MediumIO); ok {
			b.ReportMetric(c.Normalized, "mibs8-vs-fifo")
		}
		if c, ok := res.Cell("MIBS2", 64, lam, workload.MediumIO); ok {
			b.ReportMetric(c.Normalized, "mibs2-vs-fifo")
		}
	}
}

// BenchmarkFig11 regenerates Fig 11: scalability at λ=1000/min.
func BenchmarkFig11(b *testing.B) {
	e := experimentEnv(b)
	_, hours, machines := benchDynamicDims()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(e, machines, hours)
		if err != nil {
			b.Fatal(err)
		}
		m := machines[len(machines)-1]
		if c, ok := res.Cell("MIBS8", m, 1000, workload.MediumIO); ok {
			b.ReportMetric(c.Normalized, "mibs8-vs-fifo")
		}
	}
}

// BenchmarkFig12 regenerates Fig 12: MIBS queue lengths vs machines.
func BenchmarkFig12(b *testing.B) {
	e := experimentEnv(b)
	_, hours, machines := benchDynamicDims()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(e, machines, hours)
		if err != nil {
			b.Fatal(err)
		}
		m := machines[len(machines)-1]
		if c, ok := res.Cell("MIBS8", m, 1000, workload.MediumIO); ok {
			b.ReportMetric(c.Normalized, "mibs8-vs-fifo")
		}
	}
}

// BenchmarkSpotCheck10k regenerates the Sec 4.8 claim on 10,000 machines
// through the manager hierarchy (skipped under -short).
func BenchmarkSpotCheck10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10,000-machine run skipped under -short")
	}
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.SpotCheck10k(e, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Normalized, "mibs8-vs-fifo")
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// staticSpeedup measures MIBS-over-FIFO speedup for a given scorer setup.
func staticSpeedup(b *testing.B, e *experiments.Env, scorer *sched.Scorer) float64 {
	b.Helper()
	var fifoTotal, mibsTotal float64
	for seed := int64(1); seed <= 6; seed++ {
		mixer := workload.NewMixer(seed)
		batch := mixer.Batch(workload.MediumIO, 32)
		tasks := make([]sched.Task, len(batch))
		for i, spec := range batch {
			tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name)}
		}
		fifo, err := e.RunStaticPublic(sched.FIFO{}, 16, tasks)
		if err != nil {
			b.Fatal(err)
		}
		mibs, err := e.RunStaticPublic(&sched.MIBS{Scorer: scorer, QueueLen: len(tasks)}, 16, tasks)
		if err != nil {
			b.Fatal(err)
		}
		fifoTotal += fifo.TotalRuntime
		mibsTotal += mibs.TotalRuntime
	}
	return fifoTotal / mibsTotal
}

// BenchmarkAblationOracleVsNLM compares the trained NLM scheduler against
// the ground-truth oracle — how much headroom better models would buy.
func BenchmarkAblationOracleVsNLM(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		nlm := staticSpeedup(b, e, sched.NewScorer(e.Libraries[model.NLM], sched.MinRuntime))
		oracle := staticSpeedup(b, e, sched.NewScorer(e.Oracle, sched.MinRuntime))
		b.ReportMetric(nlm, "nlm-speedup")
		b.ReportMetric(oracle, "oracle-speedup")
	}
}

// BenchmarkAblationDom0Feature quantifies the paper's fourth-parameter
// claim: NLM trained without the Dom0 CPU characteristic.
func BenchmarkAblationDom0Feature(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(e)
		if err != nil {
			b.Fatal(err)
		}
		with := res.MeanError(model.Runtime, model.NLM)
		without := res.MeanError(model.Runtime, model.NLMNoDom0)
		b.ReportMetric(with*100, "with-dom0-err-%")
		b.ReportMetric(without*100, "without-dom0-err-%")
		b.ReportMetric(without/with, "error-inflation-x")
	}
}

// BenchmarkAblationQueueLength sweeps the MIBS batch length beyond the
// paper's 2/4/8 to show diminishing returns.
func BenchmarkAblationQueueLength(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		for _, q := range []int{1, 2, 4, 8, 16} {
			cells, err := experiments.RunQueueLength(e, q, 64, 50, 2*3600)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(cells, "q"+itoa(q)+"-vs-fifo")
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

// BenchmarkStorageStudy runs the future-work device comparison: how
// violent interference is per device class and how much scheduling
// recovers on each.
func BenchmarkStorageStudy(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.StorageStudy(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MIBSSpeedup, row.Device+"-speedup")
		}
	}
}

// BenchmarkAblationForestModel compares the future-work regression-forest
// model against the paper's NLM on cross-validated prediction error.
func BenchmarkAblationForestModel(b *testing.B) {
	e := experimentEnv(b)
	for i := 0; i < b.N; i++ {
		for _, k := range []model.Kind{model.NLM, model.Forest} {
			tot := 0.0
			for _, app := range e.BenchmarkNames() {
				errs, err := model.CrossValidate(e.TrainingSets[app], k, model.Runtime, 5)
				if err != nil {
					b.Fatal(err)
				}
				m, _ := model.ErrorSummary(errs)
				tot += m
			}
			name := "nlm"
			if k == model.Forest {
				name = "forest"
			}
			b.ReportMetric(tot/float64(len(e.BenchmarkNames()))*100, name+"-rt-err-%")
		}
	}
}

// --- Parallel evaluation engine benches. ---
//
// These quantify the worker-pool speedup of the parallel Env build and
// experiment fan-out. On a single-core host they record ~parity (the pool
// degrades to interleaved execution); with GOMAXPROCS ≥ 4 the parallel
// variants should win roughly linearly until profiling becomes
// memory-bound. Both variants produce byte-identical results — see
// TestNewEnvParallelMatchesSequential.

// BenchmarkNewEnvSequential measures the one-worker Env build: profiling
// every benchmark, training three libraries and solving the n² pair table.
func BenchmarkNewEnvSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnvParallel(1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostSteady measures one contention solve of the profiling grid
// that dominates the Env build: each op is one Host.Steady call, cycling
// through the grid row of 8 benchmarks × 125 synthetic backgrounds.
func BenchmarkHostSteady(b *testing.B) {
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		b.Fatal(err)
	}
	var pairs [][]xen.AppSpec
	for _, a := range workload.Benchmarks() {
		for _, bg := range workload.ProfilingWorkloads(host.Config().Disk) {
			pairs = append(pairs, []xen.AppSpec{a.Spec, bg.Spec})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := host.Steady(pairs[i%len(pairs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEnvParallel measures the same build fanned across a
// GOMAXPROCS-wide worker pool (at least 4 so the shape of the fan-out is
// exercised even on small hosts).
func BenchmarkNewEnvParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnvParallel(1, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunnerSuite is the experiment slice the Runner benches fan out:
// one table plus two figure experiments of distinct cost profiles.
func benchRunnerSuite() []experiments.Experiment {
	return []experiments.Experiment{
		{Name: "table1", Run: func(e *experiments.Env) (fmt.Stringer, error) { return experiments.Table1(e) }},
		{Name: "fig4", Run: func(e *experiments.Env) (fmt.Stringer, error) { return experiments.Fig4(e, 4) }},
		{Name: "fig9", Run: func(e *experiments.Env) (fmt.Stringer, error) { return experiments.Fig9(e, []float64{2, 50}, 1) }},
	}
}

// BenchmarkRunnerSequential runs the slice on one worker.
func BenchmarkRunnerSequential(b *testing.B) {
	e := experimentEnv(b)
	suite := benchRunnerSuite()
	for i := 0; i < b.N; i++ {
		for _, oc := range (experiments.Runner{Workers: 1}).Run(e, suite) {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
		}
	}
}

// BenchmarkRunnerParallel fans the same slice across the worker pool.
func BenchmarkRunnerParallel(b *testing.B) {
	e := experimentEnv(b)
	suite := benchRunnerSuite()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for i := 0; i < b.N; i++ {
		for _, oc := range (experiments.Runner{Workers: workers}).Run(e, suite) {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
		}
	}
}

// BenchmarkSchedulerOverhead measures the decision cost of each policy —
// the paper's stated trade-off (MIOS cheapest, MIX most expensive).
func BenchmarkSchedulerOverhead(b *testing.B) {
	e := experimentEnv(b)
	scorer := sched.NewScorer(e.Libraries[model.NLM], sched.MinRuntime)
	batch := make([]sched.Task, 8)
	mixer := workload.NewMixer(1)
	for i := range batch {
		batch[i] = sched.Task{ID: int64(i), App: workload.BaseName(mixer.Batch(workload.MediumIO, 1)[0].Name)}
	}
	counts := sched.Counts{sched.EmptyCategory: 8, "video": 2, "email": 2, "blastn": 2}
	load := sched.Load{TotalSlots: 32, Queued: 8}
	for _, s := range []sched.Scheduler{
		sched.FIFO{},
		&sched.MIOS{Scorer: scorer},
		&sched.MIBS{Scorer: scorer, QueueLen: 8},
		&sched.MIX{Scorer: scorer, QueueLen: 8},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(batch, counts.Clone(), load); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
