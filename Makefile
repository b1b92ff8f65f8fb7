# SuperSim build/test/benchmark entry points.
#
#   make ci      - everything a merge must pass: build, vet, every test
#                  (with the fuzz seed corpora, golden-trace conformance
#                  runs, the equivalence matrix and the two allocation tests)
#                  under the coverage floors, the race detector over every
#                  package (internal/experiments with -short), checkpoint
#                  equivalence, the benchmark's smoke
#                  tests and the sweep smoke
#   make cover   - the one test pass of ci: `go test -cover ./...`, failing on
#                  any test failure or any package below its committed floor in
#                  coverage_floors.txt (`make test` is the same pass without
#                  the floors). It includes the allocation tier:
#                  TestSteadyStateAllocations (internal/core) and
#                  TestFigure5AllocationBudget (internal/experiments)
#   make test-import-export - checkpoint/restore equivalence under -race: the
#                  equivalence matrix (repeated = restored, byte for byte,
#                  over every model), the simulation-after-import harness,
#                  byte-exact snapshot round-trips, the pinned v11 bytes and
#                  the restore-side corruption checks
#   make fuzz    - short live fuzzing session on the config parsers, the
#                  event-order model, the transaction-log parser, the task
#                  journal, spans and telemetry stream readers, the
#                  run-manifest loader, the snapshot codec and Restore
#   make bench   - the paper's table/figure benchmark suite with -benchmem
#   make micro   - the standalone hot-structure micro-benchmarks, the
#                  enabled span recorder's cost per message, the
#                  congestion sensor's cost per tick in two workloads' shapes,
#                  and the arrival line's and the router delay line's cost and
#                  heap bytes per entry in clos_oq's shape
#   make sweep-smoke - fleet-observability smoke: a tiny two-point sweep with
#                  journal, manifests and the live dashboard enabled, every
#                  downstream consumer (ssparse -tasks, ssplot taskgantt, the
#                  /sweep and /metrics endpoints) driven over its artifacts
#   make bench-smoke - the host-speed benchmark's own tests (benchmark/ is a
#                  module of its own, so `go test ./...` does not see them):
#                  all six workloads at 1/50 scale, traced and untraced,
#                  each run's own outcome checks and the fingerprint
#                  equalities across run paths (the workers-key, checkpointed
#                  and probed runs must reproduce the plain run's simulated
#                  outcome). The pinned seed-1 fingerprints are compared at
#                  scale 1 only, by the benchmark itself
#   make bench-set OUT=BENCH_<pr>.json [REPS=5] - the host-speed benchmark's
#                  result set for every workload, with the machine line, for
#                  committing beside the PR that claims or risks a hot path
#   make bench-compare A=BENCH_<prev>.json B=BENCH_<pr>.json - the two sets
#                  side by side (paths relative to the repository root)
#   make bench-pairs BASE=<rev> W=<workload> [N=10] [SEED=1] - the claim
#                  rule: N alternating pairs of BASE and the working tree on
#                  one workload, and for each end-to-end metric (run_s,
#                  setup_s, peak_rss_mb) each pair's ratio, the pairs won,
#                  the base's quartile spread and a verdict (see
#                  scripts/bench_pairs.sh). SEED=2 repeats a claim on a
#                  held-out seed

GO ?= go

.PHONY: all build vet test race cover fuzz ci test-import-export bench micro bench-smoke bench-set bench-compare bench-pairs sweep-smoke

all: ci

build:
	$(GO) build ./...

# benchmark/ is a module of its own, which `go vet ./...` does not see.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

test:
	$(GO) test ./...

# The simulator proper is single-threaded by design, but taskrun/sweep drive
# it from worker goroutines, the live endpoint scrapes a running simulation
# (TestLiveScrapeDuringRun), and nothing stops a future package from doing the
# same — so CI races everything, not just the packages known to be concurrent.
# internal/experiments runs with -short: its claim tests are whole figure
# sweeps that `make cover` already runs once. Under -short its reduced figure
# sweep still runs on one worker and on two
# (TestFigureSweepSerialEqualsParallel, TestFigureSweepJournal), so the
# detector sees the experiments' worker goroutines.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/experiments$$')
	$(GO) test -race -short ./internal/experiments

# Per-package statement coverage with committed floors: a drop below any
# package's floor in coverage_floors.txt fails the target, and so does a
# failing test — a package that fails reports no coverage, which the script
# treats as below its floor. That holds for packages that have a floor: give
# every package with tests one (the script names those without).
cover:
	sh scripts/check_cover.sh coverage_floors.txt

# Short live fuzzing session on every parser of outside input. The seeds
# (f.Add and the committed corpora under testdata/fuzz) run on every plain
# `go test`; this target actually explores beyond them.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLoadConfig -fuzztime=10s ./internal/config
	$(GO) test -run='^$$' -fuzz=FuzzSettingsOverride -fuzztime=10s ./internal/config
	$(GO) test -run='^$$' -fuzz=FuzzEventOrder -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz=FuzzLoadTasks -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz=FuzzLoadSpans -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz=FuzzLoadTelemetry -fuzztime=10s ./internal/ssparse
	$(GO) test -run='^$$' -fuzz=FuzzManifestLoad -fuzztime=10s ./internal/manifest
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=10s ./internal/core

# Checkpoint/restore equivalence: the equivalence matrix (every model, a
# repeat and a restore of the middle checkpoint, compared checkpoint by
# checkpoint), the simulation-after-import harness (all golden topologies),
# checkpoints of a restored run starting after its restore tick, byte-exact
# snapshot round-trips, the schema-v11 bytes pinned in
# testdata/golden/snapshots.json, restored-index validation, event records
# refused out of queue order, and the randomized checkpoint sweep — under the
# race detector.
test-import-export:
	$(GO) test -race -count=1 -run='TestEquivalenceMatrix|TestCheckpointedRunMatchesGolden|TestSimulationAfterImport|TestRestoredRunCheckpointsOnlyAhead|TestSnapshotRoundTrip|TestSnapshotBytesPinned|TestRestoreRejectsOutOfRangeIndices|TestRestoreRejectsVersion2|TestRestoreRejectsMessageCorruption|TestRestoreRejectsUncodedEventOwner|TestRestoreRejectsEventsOutOfOrder|TestSnapshotRejectsUncodedEventOwner|TestRandomizedCheckpointRestore' ./internal/core
	$(GO) test -count=1 ./internal/snapshot

# cover runs every test once, with the floors enforced; ci does not also run
# the plain test target.
ci: build vet cover race test-import-export bench-smoke sweep-smoke

# The benchmark's smoke test (~15 s), so every merge runs the six workloads
# and their cross-path fingerprint equalities, not only the changes that are
# measured.
bench-smoke:
	$(GO) test -C benchmark ./...

# The committed trajectory (ROADMAP 4(b)): one result set per PR, and the
# comparison of two of them. The benchmark runs in benchmark/, so paths are
# made absolute here.
REPS ?= 5
bench-set:
	$(GO) run -C benchmark . -reps $(REPS) -out $(abspath $(OUT))

bench-compare:
	$(GO) run -C benchmark . -compare $(abspath $(A)) $(abspath $(B))

N ?= 10
bench-pairs:
	sh scripts/bench_pairs.sh $(BASE) $(W) $(N)

# Fleet-observability smoke: the sweep→journal→manifest→parse→plot→dashboard
# pipeline end-to-end. See scripts/sweep_smoke.sh.
sweep-smoke:
	sh scripts/sweep_smoke.sh

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

micro:
	$(GO) test -run='^$$' -bench='BenchmarkNewMessage|BenchmarkPoolNewMessage' -benchmem ./internal/types
	$(GO) test -run='^$$' -bench='BenchmarkQueueShapes|BenchmarkQueueChurn' -benchmem ./internal/sim
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/stats
	$(GO) test -run='^$$' -bench='BenchmarkSpansMessage' -benchmem ./internal/telemetry
	$(GO) test -run='^$$' -bench='BenchmarkCreditSensor' -benchmem ./internal/congestion
	$(GO) test -run='^$$' -bench='BenchmarkLine$$' -benchmem ./internal/channel
	$(GO) test -run='^$$' -bench='BenchmarkDelayLine$$' -benchmem ./internal/router
