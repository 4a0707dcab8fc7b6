package main

// endToEndNames are the metrics every untraced run reports, on every
// workload. BENCHMARK.json lists the same names; a test checks the two
// agree.
var endToEndNames = []string{
	"setup_s", "throughput_tps", "submit_p50_ms", "e2e_p50_ms",
	"cpu_ms_per_ktask", "peak_rss_mb", "ok_ratio",
}

// layerMetric is one per-layer metric and the prediction it carries: the
// end-to-end metric it should move, and on which workload.
type layerMetric struct {
	name, unit, better string
	moves, where       string
}

// Tags shared by several layers.
const (
	httpTag   = "cpu_ms_per_ktask, submit_p50_ms"
	placerTag = "throughput_tps, cpu_ms_per_ktask"
	setupTag  = "setup_s"
)

var layerMetrics = []layerMetric{
	{"serve.http_submit_us.p50", "us", "lower", httpTag, "online-small"},
	{"serve.http_submit_us.p99", "us", "lower", httpTag, "online-small"},
	{"serve.http_complete_us.p50", "us", "lower", httpTag, "online-small"},
	{"serve.http_complete_us.p99", "us", "lower", httpTag, "online-small"},
	{"serve.http_self_us", "us", "lower", httpTag, "online-small"},

	{"serve.placer_submit_us.p50", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.placer_submit_us.p99", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.placer_batch_us.p50", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.placer_batch_us.p99", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.placer_complete_us.p50", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.placer_complete_us.p99", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.decision_us.p50", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.decision_us.p99", "us", "lower", placerTag, "batch-large-durable (flat on online-small)"},
	{"serve.plan_first_try_ratio", "ratio", "higher", placerTag, "batch-large-durable (flat on online-small)"},

	{"serve.cache_hit_ratio", "ratio", "higher", "cpu_ms_per_ktask", "batch-large-durable (flat on online-small)"},
	{"model.predict_cached_ns", "ns", "lower", "cpu_ms_per_ktask", "batch-large-durable (flat on online-small)"},
	{"model.predict_uncached_ns", "ns", "lower", "cpu_ms_per_ktask", "batch-large-durable (flat on online-small)"},

	{"monitor.observe_ns", "ns", "lower", "cpu_ms_per_ktask", "online-small"},

	{"durable.append_us.p50", "us", "lower", "throughput_tps, e2e_p50_ms (tail: load.e2e_p99_ms)", "batch-large-durable (absent on online-small)"},
	{"durable.append_us.p99", "us", "lower", "throughput_tps, e2e_p50_ms (tail: load.e2e_p99_ms)", "batch-large-durable (absent on online-small)"},
	{"durable.fsync_ms.p50", "ms", "lower", "throughput_tps, e2e_p50_ms (tail: load.e2e_p99_ms)", "batch-large-durable (absent on online-small)"},
	{"durable.fsync_ms.p99", "ms", "lower", "throughput_tps, e2e_p50_ms (tail: load.e2e_p99_ms)", "batch-large-durable (absent on online-small)"},
	{"durable.appends_per_task", "count", "lower", "throughput_tps, e2e_p50_ms (tail: load.e2e_p99_ms)", "batch-large-durable (absent on online-small)"},
	{"durable.bytes_per_task", "B", "lower", "throughput_tps, e2e_p50_ms (tail: load.e2e_p99_ms)", "batch-large-durable (absent on online-small)"},

	{"obs.overhead_pct", "%", "lower", "cpu_ms_per_ktask", "online-small"},
	{"runtime.gc_per_ktask", "count", "lower", "cpu_ms_per_ktask", "online-small and batch-large-durable"},

	{"xen.steady_us", "us", "lower", setupTag, "all three workloads"},
	{"xen.steady_allocs", "count", "lower", setupTag, "all three workloads"},
	{"xen.table_s", "s", "lower", setupTag, "all three workloads"},
	{"model.profile_s", "s", "lower", setupTag, "all three workloads"},
	{"model.train_s", "s", "lower", setupTag, "all three workloads"},

	{"sched.decision_us.p50", "us", "lower", "throughput_tps (Fig 9 wall time)", "sim-fig9"},
	{"sched.decision_us.p99", "us", "lower", "throughput_tps (Fig 9 wall time)", "sim-fig9"},
	{"sched.decisions", "count", "lower", "throughput_tps (Fig 9 wall time)", "sim-fig9"},
	{"sim.events", "count", "lower", "throughput_tps (Fig 9 wall time)", "sim-fig9"},
	{"sim.self_s", "s", "lower", "throughput_tps (Fig 9 wall time)", "sim-fig9"},
	{"sim.run_s", "s", "lower", "throughput_tps (Fig 9 wall time)", "sim-fig9"},
	{"sim.fig9_gain", "ratio", "higher", "ok_ratio (pinned by the Fig 9 digest)", "sim-fig9"},

	{"load.submit_p99_ms", "ms", "lower", "submit_p50_ms (tail of the same samples)", "online-small and batch-large-durable"},
	{"load.e2e_p99_ms", "ms", "lower", "e2e_p50_ms (tail of the same samples)", "online-small and batch-large-durable"},
	{"load.lateness_p99_ms", "ms", "lower", "validity of e2e_p50_ms and load.e2e_p99_ms", "online-small and batch-large-durable"},
	{"load.client_cpu_ms_per_ktask", "ms", "lower", "validity of cpu_ms_per_ktask", "online-small and batch-large-durable"},
}

var layerByName = func() map[string]layerMetric {
	m := map[string]layerMetric{}
	for _, l := range layerMetrics {
		m[l.name] = l
	}
	return m
}()

// layerNames returns the per-layer metrics every traced run reports.
func layerNames() []string {
	out := make([]string, len(layerMetrics))
	for i, l := range layerMetrics {
		out[i] = l.name
	}
	return out
}
