# Reproduction targets for "Search on a Line with Faulty Robots".

GO ?= go

.PHONY: all build test race bench bench-paper bench-check bench-pr5 bench-pr5-check bench-pr6 bench-pr6-check bench-pr7 bench-pr7-check bench-pr10 bench-pr10-check lint chaos chaos-partition cluster-smoke obs-smoke fuzz repro data serve sweep clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Compiled-kernel benchmarks (cold compile, hot eval, batch sizes
# 1/100/10000, one sweep cell) with their pre-kernel sim references.
# Writes the machine-readable report to BENCH_pr3.json; compare against
# a baseline with `make bench-check` or cmd/benchjson -compare.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/compiled | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_pr3.json

# Fail when BENCH_pr3.json regresses allocs/op more than 2x against the
# checked-in baseline.
bench-check: bench
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_pr3.json

# Telemetry-overhead benchmarks: the untraced request fast path (must
# stay 0 allocs/op), traced requests, traceparent parsing, histogram
# observation, and the compiled hot paths through the ctx-aware entry
# points. Writes BENCH_pr5.json.
bench-pr5:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/telemetry ./internal/compiled | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_pr5.json

# Fail when the compiled hot paths regress allocs/op against the PR 3
# report (benchjson compares only the benchmarks both reports share).
bench-pr5-check: bench-pr5
	$(GO) run ./cmd/benchjson -compare BENCH_pr3.json BENCH_pr5.json

# Byzantine-era benchmarks: the crash hot paths plus the vote-rule
# batch path (BenchmarkByzantineBatch). Writes BENCH_pr6.json.
bench-pr6:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/telemetry ./internal/compiled | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_pr6.json

# Fail when the crash-fault kernel regresses allocs/op against the PR 5
# report — the vote rule must not cost the crash path anything.
bench-pr6-check: bench-pr6
	$(GO) run ./cmd/benchjson -compare BENCH_pr5.json BENCH_pr6.json

# Stochastic-engine-era benchmarks: the crash hot paths plus the
# discrete-event scheduler (dispatch must stay 0 allocs/event in steady
# state), the p-faulty search sampler, the Monte-Carlo driver and the
# expected-time series. Writes BENCH_pr7.json.
bench-pr7:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/telemetry ./internal/compiled ./internal/engine | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_pr7.json

# Fail when the deterministic kernel regresses allocs/op against the
# PR 6 report — the stochastic engine must not cost the crash path
# anything.
bench-pr7-check: bench-pr7
	$(GO) run ./cmd/benchjson -compare BENCH_pr6.json BENCH_pr7.json

# Observability-era benchmarks: the PR 7 set plus the event journal
# (live Record and the nil-journal disabled path, both 0 allocs/op) and
# outbound traceparent propagation on the untraced hot path. Writes
# BENCH_pr10.json.
bench-pr10:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/telemetry ./internal/telemetry/journal ./internal/compiled ./internal/engine | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_pr10.json

# Fail when the untraced request path or the kernels regress allocs/op
# against the PR 7 report — the observability plane must be free when
# it is off.
bench-pr10-check: bench-pr10
	$(GO) run ./cmd/benchjson -compare BENCH_pr7.json BENCH_pr10.json

# Static analysis beyond go vet. staticcheck is installed by CI; run
# `go install honnef.co/go/tools/cmd/staticcheck@2025.1` to get it
# locally.
lint:
	$(GO) vet ./...
	staticcheck ./...

# Fault-injection chaos suite under the race detector: 24 deterministic
# schedules, the kill-and-resume torture test, and a randomized-seed
# soak (seeds are logged, so failures replay deterministically).
chaos:
	$(GO) test -race -count=1 -run 'Chaos|KillAndResume|FaultInjection|FaultPoint' \
		./internal/sweep ./internal/faultpoint -chaos.soak=45s

# Partition chaos suite under the race detector: SWIM gossip under
# split-brain and asymmetric link faults, replication hinted handoff
# and anti-entropy convergence after a heal, and the kill-home-mid-
# sweep zero-loss acceptance test. Every partition is injected with
# seeded fault points, so a failure replays deterministically.
chaos-partition:
	$(GO) test -race -count=1 -v -run 'Partition' \
		./internal/membership ./internal/cluster

# Sharded-fleet smoke under the race detector: the consistent-hash
# ring properties, the router integration suite (failover, warm
# transfer, chaos kill/restart), and the loadgen-driven p99 gate
# against the checked-in budget (cmd/loadgen/testdata/p99_budget.json).
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster ./cmd/linerouter
	$(GO) test -race -count=1 -run 'TestClusterSmoke' ./cmd/loadgen

# Observability smoke against real processes: two linesearchd backends
# and a linerouter on ephemeral ports; asserts one sampled request
# stitches across processes on /debug/fleet-traces and that a topology
# reshape leaves journal events on the router (topology_change) and the
# receiving backend (snapshot_import).
obs-smoke:
	bash scripts/obs-smoke.sh

# One benchmark per paper table/figure plus micro benchmarks.
bench-paper:
	$(GO) test -bench . -benchmem .

# Short fuzzing smoke: the public SearchTime entry point, the
# Byzantine vote-rule kernel against the exact engine, the kernel's
# grouped k-th-visit selection against a sort, and the discrete-event
# scheduler against the closed-form simulator.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSearchTime -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzByzantineVote -fuzztime 30s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzGroupedKth -fuzztime 30s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzEngineVsSim -fuzztime 30s ./internal/engine

# Regenerate every table and figure as text on stdout.
repro:
	$(GO) run ./cmd/paper

# Serve the library over JSON HTTP (plan cache, batch, metrics).
serve:
	$(GO) run ./cmd/linesearchd

# Run the default checkpointed parameter sweep in the foreground
# (interrupt with Ctrl-C; rerunning resumes). Datasets land in
# data/sweeps/ — see data/README.md for the schema.
sweep:
	$(GO) run ./cmd/linesweep -n 2,3,4,5,6,7,8,9,10,11 -f 1,2,3,4,5 \
		-strategies auto,doubling -betas 2.5,4

# Export every experiment's datasets as CSV and JSON under data/.
data:
	$(GO) run ./cmd/paper -csv data/csv -json data/json > /dev/null
	@echo "datasets written to data/csv and data/json"

clean:
	rm -rf data
	$(GO) clean ./...
