# Tier-1 gate plus the race pass that guards the parallel evaluation
# engine. `make ci` is what a checkin must keep green.

GO ?= go

.PHONY: ci vet build test race audit trace serve-smoke obs-smoke chaos crash-smoke fuzz-smoke dst dst-long cover results-check bench bench-json bench-kernels perfbench clean

ci: vet build test race audit trace serve-smoke obs-smoke chaos crash-smoke fuzz-smoke dst cover results-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./... -count=1

# Short mode keeps the race pass under ~2 minutes: the determinism golden
# test drops to one seed and the heavyweight dynamic sweeps shrink their
# dimensions (see testing.Short() guards in the _test files).
race:
	$(GO) test -short -race ./... -count=1

# Self-audit: replay a compact slice of the evaluation with the invariant
# auditor attached to every simulation (pool⟺machine consistency, work
# conservation, time/energy monotonicity, FIFO-fair pops). Any violation
# exits non-zero. Takes a couple of seconds.
audit:
	$(GO) run ./cmd/traconbench -quick -hours 0.5 -only table1,fig3,fig8,fig9 -audit -parallel 4 > /dev/null

# Tracing gate: the tracontrace CLI must build and the trace exports must
# be byte-identical across worker counts (and leave results untouched).
trace:
	$(GO) build -o /dev/null ./cmd/tracontrace
	$(GO) test ./internal/experiments -run TestTraceExportDeterministicAcrossWorkers -short -count=1
	$(GO) test ./internal/obs -run 'TestTrace|TestTracer|TestPerfetto' -count=1

# Serving-mode smoke test: boot tracond on a random port, drive it with a
# traconload burst, assert non-zero completions and a clean SIGTERM drain;
# then five boots that take a SIGTERM the moment the portfile appears must
# each drain cleanly too.
serve-smoke:
	bash scripts/serve_smoke.sh

# Observability smoke test: boot tracond with JSON logs, drive a scraped
# traconload burst, then assert Prometheus exposition shape, serve-trace
# span balance and Perfetto conversion, X-Request-Id echo, and /v1/slo.
obs-smoke:
	bash scripts/obs_smoke.sh

# Chaos gate: the simulator-side fault-injection suite (crash recovery,
# retry/backoff/timeout, golden determinism under faults), the serve-side
# machine lifecycle tests, and the end-to-end drill — tracond under
# traconload -chaos with random kills and revivals; no task may fail.
chaos:
	$(GO) test ./internal/fault ./internal/sim -run 'TestChaos|TestTimeout|TestRetry|TestBackoff|TestSlowdown|TestEmptyPlan|Fault' -count=1
	$(GO) test ./internal/serve -run 'TestMachineLifecycle|TestDrainCordons|TestKillRequeues|TestAdmissionShedding|TestHTTPMachineOps' -count=1
	$(GO) test ./internal/experiments -run 'TestChaosExperiments|TestEmptyFaultFactory' -short -count=1
	bash scripts/chaos_smoke.sh

# Crash gate: tracond journaling under -fsync always takes a SIGKILL
# mid-burst, restarts on the same data dir, and every admitted task must
# reach a terminal state exactly once (no losses, no duplicate IDs).
crash-smoke:
	bash scripts/crash_smoke.sh

# Ten seconds each of coverage-guided fuzzing against the placer's machine
# lifecycle (submit/complete/kill/revive/drain/undrain interleavings) and
# the WAL reader's torn/corrupt-frame discrimination; the checked-in
# corpora under internal/{serve,durable}/testdata seed them.
fuzz-smoke:
	$(GO) test ./internal/serve -fuzz=FuzzPlacerBacklog -fuzztime=10s -run '^$$'
	$(GO) test ./internal/durable -fuzz=FuzzWALReader -fuzztime=10s -run '^$$'

# Deterministic simulation gate: 50 seeded scenarios drive the whole
# daemon (placer, admission, swaps, journal, simulated crashes)
# on a virtual clock and an in-memory disk, with the full property suite
# checked after every op; plus the byte-identical-trail contract, the
# sim-engine equivalence oracle, and the injected-violation meta-test
# (catch → ddmin shrink → seed repro). A failure prints a one-line
# `go test ./internal/dst -run 'TestDST$$' -dst-seed=N` reproduction.
dst:
	$(GO) test ./internal/dst -count=1 -dst-scenarios=50

# Nightly-depth sweep: an order of magnitude more seeds and longer op
# streams. Not part of `make ci`.
dst-long:
	$(GO) test ./internal/dst -count=1 -dst-scenarios=500 -dst-ops=400 -timeout 30m

# Per-package statement coverage with a ratchet: any package falling more
# than a point below the floor recorded in COVERAGE.ratchet fails the
# gate. After genuine coverage gains, raise the floors with
# `bash scripts/cover_ratchet.sh -update` (it never lowers one).
cover:
	bash scripts/cover_ratchet.sh

# Bit-identity gate: regenerate every CSV exhibit at paper scale into a
# temporary directory and diff it against results/ (spotcheck.csv only via
# `bash scripts/results_check.sh -spotcheck`). About 45 s on two cores.
results-check:
	bash scripts/results_check.sh

# Regenerate the paper exhibits through the benchmark harness.
bench:
	$(GO) test -bench=. -benchmem -count=1 .

# Machine-readable benchmark snapshot of the engine-critical paths; the
# checked-in BENCH_pr3.json is this target's output at the PR-3 baseline.
bench-json:
	$(GO) test -json -run '^$$' -bench 'BenchmarkNewEnv|BenchmarkFig9$$|BenchmarkSchedulerOverhead' \
		-benchmem -benchtime 1x -count=1 . > BENCH_pr3.json

# The numeric kernels under the environment build: one Host.Steady solve
# of the profiling grid, the whole one-worker NewEnv build, and the
# 60-tree forest fit that model.Forest trains per app and response; plus
# the placer's submit/complete cost from 8 to 10240 machines, which the
# slot pool keeps flat.
bench-kernels:
	$(GO) test -run '^$$' -bench '^(BenchmarkHostSteady|BenchmarkNewEnvSequential)$$' -benchmem -count=1 .
	$(GO) test -run '^$$' -bench '^BenchmarkFitForest$$' -benchmem -count=1 ./internal/stats
	$(GO) test -run '^$$' -bench '^BenchmarkPlacerSubmitComplete$$' -benchmem -count=1 ./internal/serve

# The repository benchmark (BENCHMARK.json): the three workloads, one
# after the other, through perfbench/run.sh, end-to-end metrics only.
# SEED picks the workload seed, SECONDS the timed phase of each serve
# workload; add TRACE=1 for the per-layer run. The checked-in
# BENCH_pr*.json files are snapshots of the serving harness this replaced.
SEED ?= 1
SECONDS ?= 15
TRACE ?= 0
perfbench:
	for w in online-small batch-large-durable sim-fig9; do \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE) || exit 1; \
	done

clean:
	$(GO) clean ./...
