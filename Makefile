# Reproduction targets for "Search on a Line with Faulty Robots".

GO ?= go

.PHONY: all build test race stress bench bench-paper bench-check lint chaos chaos-partition cluster-smoke obs-smoke fuzz repro data serve sweep clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Twenty race-detector runs of the packages where goroutines meet the
# network or the disk: the sweep engine, the router fleet and gossip
# membership. A flake that fails one run in a few dozen fails here.
stress:
	$(GO) test -race -count=20 -timeout 30m ./internal/sweep ./internal/cluster ./internal/membership

# The layer benchmarks behind the allocation gate: telemetry (the
# untraced request and traceparent propagation stay 0 allocs/op), the
# event journal (live and nil-journal Record), the compiled kernel
# (cold compile, hot eval, batches, sweep cells, Byzantine vote rule)
# and the stochastic engine (dispatch, sampler, Monte Carlo, expected
# time). One run; the report goes to the git-ignored bench-report.json.
BENCH_PKGS = ./internal/telemetry ./internal/telemetry/journal ./internal/compiled ./internal/engine

bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o bench-report.json

# Fail when any benchmark's allocs/op exceeds 2x the checked-in
# BENCH_reference.json (floored at 1 alloc/op, so every 0 allocs/op
# benchmark may reach at most 2). The reference is `make bench` output
# at a fixed commit; BENCH_baseline.json and BENCH_pr*.json are history.
bench-check: bench
	$(GO) run ./cmd/benchjson -compare -factor 2 BENCH_reference.json bench-report.json

# Static analysis beyond go vet. staticcheck is installed by CI; run
# `go install honnef.co/go/tools/cmd/staticcheck@2025.1` to get it
# locally.
lint:
	$(GO) vet ./...
	staticcheck ./...

# Fault-injection chaos suite under the race detector: 24 deterministic
# schedules, the kill-and-resume torture test, every test of the
# fault-point package itself, and a randomized-seed soak (seeds are
# logged, so failures replay deterministically). Only the sweep package
# defines -chaos.soak, so the soak has its own line.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|KillAndResume|FaultInjection|FaultPoint' ./internal/sweep
	$(GO) test -race -count=1 ./internal/faultpoint
	$(GO) test -race -count=1 -run 'TestChaosSoak' ./internal/sweep -chaos.soak=45s

# Partition chaos suite under the race detector: SWIM gossip under
# split-brain and asymmetric link faults, anti-entropy repair of the
# replication pushes a partition dropped and convergence after a heal,
# and the kill-home-mid-sweep zero-loss acceptance test. Every partition is injected with
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
