// Command perfbench is the TRACON repository's benchmark. It runs one
// named workload, checks that the outputs are correct, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. See README.md for the
// workloads, the metrics and what each per-layer number should move.
//
//	perfbench -workload online-small -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 is a separate run that
// reports the per-layer metrics. The serve workloads drive a tracond
// binary (-tracond) as a black box; sim-fig9 runs in process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tracon/internal/experiments"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tracond  string
	conns    int    // connection pool cap: nproc
	tmp      string // scratch directory inside the checkout
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: online-small, batch-large-durable or sim-fig9")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 is the traced run reporting per-layer metrics")
		tracond  = flag.String("tracond", filepath.Join(".bench_build", "bin", "tracond"), "tracond binary the serve workloads drive")
		digests  = flag.Bool("fig9-digests", false, "print the reference Fig 9 digest of every environment seed and exit")
	)
	flag.Parse()
	if *digests {
		if err := printDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o := options{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, tracond: *tracond, conns: runtime.NumCPU(),
	}
	os.Exit(run(o))
}

// run executes one workload and prints its result. It returns the exit
// code: 0 for a correct run, 1 when a correctness check failed (the
// result line still prints, with correct false), 2 when the run could not
// be measured at all (no result line).
func run(o options) int {
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	res := newResult()
	steal0, total0 := hostSteal()
	switch o.workload {
	case onlineSmall.name:
		err = runServe(onlineSmall, o, res)
	case batchLargeDurable.name:
		err = runServe(batchLargeDurable, o, res)
	case "sim-fig9":
		err = runSim(o, res)
	default:
		err = fmt.Errorf("unknown workload %q (want online-small, batch-large-durable or sim-fig9)", o.workload)
	}
	if err == nil && o.trace {
		err = completeLayers(o, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		res.Note("host CPU steal during the run: %.1f%%", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if !o.trace {
		res.Set("ok_ratio", res.okRatio(), "ratio")
	}
	want := endToEndNames
	if o.trace {
		want = layerNames()
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			res.Violate("metric %s was not measured", name)
		}
	}
	report(o, res)
	if !res.Correct() {
		return 1
	}
	return 0
}

// completeLayers makes a traced run report every per-layer metric. The
// layers its own workload does not exercise are measured the way the
// workload that does exercise them measures them: sim-fig9 adds the
// traced online-small flow (whose in-process probes also cover xen and
// model training), and the serve workloads add one observed Fig 9 sweep.
func completeLayers(o options, res *Result) error {
	if o.workload == "sim-fig9" {
		if err := runServe(onlineSmall, o, res); err != nil {
			return fmt.Errorf("online-small layers: %w", err)
		}
		return nil
	}
	if err := traceFig9(o, res); err != nil {
		return fmt.Errorf("Fig 9 layers: %w", err)
	}
	return nil
}

// report prints the environment stamp, notes, violations and one line per
// metric, then the result line, and keeps a copy under .bench_build.
func report(o options, res *Result) {
	stamp := envStamp()
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  env %s: %s\n", k, stamp[k])
	}
	for _, n := range res.Notes {
		fmt.Printf("  note %s\n", n)
	}
	for i, v := range res.Violations {
		if i == 20 {
			fmt.Printf("  ... %d more violations\n", len(res.Violations)-i)
			break
		}
		fmt.Printf("  VIOLATION %s\n", v)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		tag := ""
		if l, ok := layerByName[n]; ok {
			tag = fmt.Sprintf("  -> %s on %s", l.moves, l.where)
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", n, m.Value, m.Unit, tag)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct(), res.Attempted, res.Failed + int64(len(res.Violations)), res.Metrics}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return
	}
	fmt.Println(string(b))

	full := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
		"env": stamp, "notes": res.Notes, "violations": res.Violations, "result": line,
	}
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", o.workload, o.seed, o.trace, time.Now().Unix())
		if fb, err := json.MarshalIndent(full, "", "  "); err == nil {
			_ = os.WriteFile(filepath.Join(dir, name), fb, 0o644)
		}
	}
}

// envStamp records where the numbers came from.
func envStamp() map[string]string {
	s := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown (not a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s["commit"] = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile(filepath.Join(".bench_build", "source.sha256")); err == nil {
		s["source_sha256"] = strings.TrimSpace(string(b))
	}
	return s
}

// hostSteal returns the steal and total jiffies of all CPUs from
// /proc/stat (zeros when unreadable). Steal is time the hypervisor ran
// something else while this host's vCPUs wanted to run; it explains runs
// whose numbers stand out.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// printDigests runs Fig 9 for every environment seed and prints the
// reference digest lines fig9_digests.txt holds.
func printDigests() error {
	for seed := int64(1); seed <= envSeeds; seed++ {
		env, err := experiments.NewEnv(seed)
		if err != nil {
			return err
		}
		r, err := experiments.Fig9(env, nil, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%d %s\n", seed, digest(fig9Rows(r)))
	}
	return nil
}
