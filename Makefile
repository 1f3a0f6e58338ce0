# Convenience targets for the PERT reproduction.

GO ?= go

.PHONY: all build test vet check one-path validate-scenarios bench bench-micro bench-smoke bench-selftest cache-smoke chaos-smoke shard-smoke shard-diff hybrid-smoke results results-check results-paper fuzz clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full gate: vet (this module and the benchmark module, whose code calls
# into this one's packages), the one-run-path gate, every committed example
# scenario validated against the loader, then the test suite under the race
# detector (exercises the harness and the parallel sweep workers). The
# wall-clock metrics-overhead budget is built only without -race, so it runs
# in `make test` and `make bench-smoke`, not here. The three TestExtHybrid*
# tests are skipped under -race: they run single-engine code, cost about 410 s
# of race time against about 25 s without it, and run without -race in
# `make test` and `make hybrid-smoke`.
check: vet one-path validate-scenarios
	cd bench && $(GO) vet ./...
	$(GO) test -race -timeout 20m -skip '^TestExtHybrid' ./...

# One run path: every packet-level run in internal/experiments is built by
# executor.go (engine group, network, topology via the scenario compiler, the
# auditor). A second constructor anywhere else in the package's non-test code
# is a run without the auditor waiting to happen.
one-path:
	@if grep -nE 'sim\.NewEngine\(|sim\.NewShardGroup\(|netem\.NewNetwork\(|topo\.NewDumbbell\(|topo\.NewParkingLot\(|netem\.StartAudit\(' \
		$$(ls internal/experiments/*.go | grep -v -e '_test\.go$$' -e '/executor\.go$$'); then \
		echo "one-path: only internal/experiments/executor.go may build an engine, network, topology or auditor"; exit 1; \
	fi
	@echo "one-path: OK (executor.go is the only constructor in internal/experiments)"

# Validate every example scenario JSON against the live loader.
validate-scenarios:
	@for f in examples/scenarios/*.json; do \
		$(GO) run ./cmd/pertsim -config $$f -validate || exit 1; \
	done

# Perf-regression reference point: one single-worker quick-scale sweep,
# recorded as a machine-readable report (wall time, events/s, mallocs and
# allocs/event per experiment). Compare BENCH_quick.json across commits to
# spot hot-path regressions; add -cpuprofile/-memprofile to find them.
bench:
	$(GO) run ./cmd/pertbench -scale quick -json -parallel 1 > BENCH_quick.json

# Go micro-benchmarks: every paper figure/table at quick scale, ablations,
# and substrate benchmarks (ns/event, allocs/event, saturated-link cost).
bench-micro:
	$(GO) test -bench=. -benchmem ./...

# Fast benchmark sanity pass for CI: run each microbenchmark once, the
# allocation-budget tests that pin the zero-alloc hot paths (including the
# disabled-metrics path, the SACK scoreboard, a drained queue's refill, a
# flow's construction, and a web session's recycled transfers and controller
# under Reno, PERT and Vegas), and the metrics-overhead budget (<10% on
# the benchmark dumbbell with sampling at the default interval; a wall-clock
# ratio, so its file is excluded from -race builds and this is where it
# gates).
bench-smoke:
	$(GO) test -run 'TestScheduleAllocBudget|TestLinkAllocBudget' -bench=. -benchtime=1x -benchmem ./internal/sim/ ./internal/netem/
	$(GO) test -count=1 -run 'TestScoreboardAddAllocBudget|TestNewFlowAllocBudget|TestDropTailRefillAfterDrain|TestWebSessionAllocBudget' ./internal/tcp/ ./internal/queue/ ./internal/trafficgen/
	$(GO) test -run 'TestMetricsOverheadSmoke' -bench 'BenchmarkSimulatedSecond' -benchtime=1x -benchmem .

# The benchmark (bench/, BENCHMARK.json) is a module of its own, so the root
# `go test ./...` never compiles it: an engine or harness change that breaks
# it would otherwise surface only when someone next measures. Vet and test it
# against the working tree, then run one short workload end to end — every
# cell must pass its checks ("failed":0 in the result object).
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --workload bulk_dumbbell --seconds 3 | tail -n 1 | grep -q '"failed":0'

# Sharded-engine smoke: the conservative-lookahead parallel engine's
# correctness gate. Runs the shard unit and integration tests under the race
# detector (cross-shard ports, domain partitioning, queue-RNG rebinding,
# schedule migration, lazy cross-domain web sinks, the per-domain auditor
# scopes, the group-of-one run's bit-identity against the recorded serial
# tables, fixed-N determinism, the dumbbell cell runner's "ran on 2 domains /
# barred by" note, and the quick subset of the serial↔sharded differential
# suite), then the cross-shard zero-alloc budget without race
# instrumentation, then the CLI path end to end: -shards 1 must run as a
# group of one (no shard notes), and two -shards 4 runs must note per-shard
# event counts and agree byte for byte once wall-clock timing lines are
# filtered.
shard-smoke:
	$(GO) test -race -count=1 -timeout 15m -run 'Shard|Partition|TestCounters|TestAudit' ./internal/sim/ ./internal/netem/ ./internal/scenario/ ./internal/experiments/ ./internal/tcp/ ./internal/trafficgen/
	$(GO) test -count=1 -run 'TestShardSendDrainAllocBudget' ./internal/sim/
	@dir=$$(mktemp -d); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/pertbench -scale quick -exp ext-parkinglot-xl -parallel 1 -shards 1 > "$$dir/serial.txt" || exit 1; \
	grep -q 'run serially (shards=1)' "$$dir/serial.txt" || { echo "shard-smoke: -shards 1 did not run as a group of one"; exit 1; }; \
	! grep -q 'events_per_shard' "$$dir/serial.txt" || { echo "shard-smoke: a group-of-one run carries shard notes"; exit 1; }; \
	$(GO) run ./cmd/pertbench -scale quick -exp ext-parkinglot-xl -parallel 1 -shards 4 > "$$dir/s4a.txt" || exit 1; \
	$(GO) run ./cmd/pertbench -scale quick -exp ext-parkinglot-xl -parallel 1 -shards 4 > "$$dir/s4b.txt" || exit 1; \
	grep -q 'shards=4 events_per_shard=' "$$dir/s4a.txt" || { echo "shard-smoke: missing per-shard event counts"; exit 1; }; \
	grep -v 'completed in' "$$dir/s4a.txt" > "$$dir/s4a.flat"; \
	grep -v 'completed in' "$$dir/s4b.txt" > "$$dir/s4b.flat"; \
	diff -u "$$dir/s4a.flat" "$$dir/s4b.flat" || { echo "shard-smoke: sharded run not deterministic"; exit 1; }; \
	echo "shard-smoke: OK (group of one, per-shard counts, deterministic replay)"

# Serial↔sharded differential suite, full depth: every registry experiment and
# every committed example scenario run serial, -shards 1, 2 and 4, three reps
# each. Byte-identity is asserted where the engine guarantees it (shards=1
# always; shards>1 for experiments whose specs never set shards) and fixed-N
# determinism everywhere else — every dumbbell table included, since under
# -shards each carries the cell runner's note even when no row moves. The default `go test` run covers a quick subset
# of the same table; this target removes the subset gate.
shard-diff:
	PERT_SHARDDIFF=full $(GO) test ./internal/experiments -run 'TestShardDiff' -count=1 -timeout 30m -v

# Hybrid fluid/packet smoke: the substrate's correctness gate (DESIGN.md
# §10). Runs the fluid stepper and coupling unit tests, the scenario
# fluid-group validation/identity tests, and the ext-hybrid equilibrium
# conformance acceptance check (shared queue vs eq. (9) within 10%), then
# the CLI path end to end: the hybrid example scenario must validate and
# run serially, and a -shards request on it must be rejected with a clear
# error, not a panic or a wrong answer.
hybrid-smoke:
	$(GO) test -count=1 -timeout 10m -run 'Stepper|Hybrid|Fluid' ./internal/fluid/ ./internal/netem/ ./internal/scenario/ ./internal/experiments/
	$(GO) run ./cmd/pertsim -config examples/scenarios/hybrid_isp.json -validate
	$(GO) run ./cmd/pertsim -config examples/scenarios/hybrid_isp.json > /dev/null
	@if $(GO) run ./cmd/pertsim -config examples/scenarios/hybrid_isp.json -shards 4 >/dev/null 2>&1; then \
		echo "hybrid-smoke: sharded hybrid run must be rejected"; exit 1; \
	fi
	@echo "hybrid-smoke: OK (unit+conformance tests, example scenario, serial-only rejection)"

# Cache smoke: the same tiny sweep twice into one cache directory. The warm
# run must replay every cell (top-level sim_events stays 0, both runs marked
# cached) and — once timing and cache-bookkeeping lines are filtered — emit a
# byte-identical report. Guards the resume/replay contract end to end.
cache-smoke:
	@dir=$$(mktemp -d); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/pertbench -scale quick -exp fig5,fig13 -json -cache-dir "$$dir/cache" > "$$dir/cold.json" || exit 1; \
	$(GO) run ./cmd/pertbench -scale quick -exp fig5,fig13 -json -cache-dir "$$dir/cache" > "$$dir/warm.json" || exit 1; \
	grep -q '^  "sim_events": 0,' "$$dir/warm.json" || { echo "cache-smoke: warm run still simulated events"; exit 1; }; \
	test "$$(grep -c '"cached": true' "$$dir/warm.json")" -eq 2 || { echo "cache-smoke: expected 2 cached runs"; exit 1; }; \
	volatile='"started_at"|"wall_seconds"|"sim_events"|"events_per_second"|"mallocs"|"allocs_per_event"|"cache_hits"|"cache_misses"|"cached"'; \
	grep -Ev "$$volatile" "$$dir/cold.json" > "$$dir/cold.flat"; \
	grep -Ev "$$volatile" "$$dir/warm.json" > "$$dir/warm.flat"; \
	diff -u "$$dir/cold.flat" "$$dir/warm.flat" || { echo "cache-smoke: warm report differs from cold"; exit 1; }; \
	echo "cache-smoke: OK (2/2 cells replayed, zero simulations)"

# Chaos smoke: the fault-tolerance acceptance suite. SIGKILLs and
# crash-injects a cached sweep at random points (including inside the cache
# commit protocol), then proves a clean rerun repairs the debris and
# converges to a byte-identical report with zero re-simulated warm cells;
# also pins worker isolation, retry-to-identical, and crash containment.
chaos-smoke:
	$(GO) test ./internal/harness -run 'TestChaos|TestIsolatedSweepMatchesInProcess|TestCrashOnceCellRetriesToBitIdentical|TestIsolationContainsWorkerCrash' -count=1 -timeout 15m -v
	$(GO) test ./internal/cache -run 'TestCrash|TestFsck' -count=1 -v

# Regenerate the committed quick-scale results file.
results:
	$(GO) run ./cmd/pertbench -scale quick > results_quick.txt

# Non-destructive check of the committed quick-scale results: render the full
# quick sweep to a temp file and diff it against results_quick.txt with the
# wall-clock `completed in` lines filtered from both sides. Any other
# difference is a changed table — either a bug or a deliberate change that
# must land with `make results`.
results-check:
	@dir=$$(mktemp -d); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/pertbench -scale quick > "$$dir/new.txt" || exit 1; \
	grep -v 'completed in' results_quick.txt > "$$dir/want.flat"; \
	grep -v 'completed in' "$$dir/new.txt" > "$$dir/got.flat"; \
	diff -u "$$dir/want.flat" "$$dir/got.flat" || { echo "results-check: quick sweep differs from results_quick.txt"; exit 1; }; \
	echo "results-check: OK (quick sweep byte-identical to results_quick.txt modulo timing lines)"

# The paper's exact parameters; takes hours.
results-paper:
	$(GO) run ./cmd/pertbench -scale paper > results_paper.txt

# Exercise the fuzz targets briefly.
fuzz:
	$(GO) test ./internal/predictors -run=NONE -fuzz=FuzzLoadTrace -fuzztime=20s
	$(GO) test ./internal/experiments -run=NONE -fuzz=FuzzLoadScenario -fuzztime=20s
	$(GO) test ./internal/scenario -run=NONE -fuzz=FuzzLoadSpec -fuzztime=20s
	$(GO) test ./internal/netem -run=NONE -fuzz=FuzzReadTrace -fuzztime=20s
	$(GO) test ./internal/netem -run=NONE -fuzz=FuzzPartition -fuzztime=20s
	$(GO) test ./internal/harness -run=NONE -fuzz=FuzzDecodeRunRecord -fuzztime=20s
	$(GO) test ./internal/sim -run=NONE -fuzz=FuzzEngineOps -fuzztime=20s
	$(GO) test ./internal/core -run=NONE -fuzz=FuzzRamp -fuzztime=20s

clean:
	$(GO) clean ./...
