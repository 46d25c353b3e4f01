#!/usr/bin/env bash
# ci.sh is the repository's CI gate: build, vet, and the full test suite
# under the race detector — which includes gridlint, the
# determinism/concurrency analyzer suite, run over the whole module with
# its exemption audit by internal/lint's TestGridlintSelfCheck (see
# DESIGN.md "Determinism rules"), and the schedule exploration of all
# seven algorithms and the Naimi-Martin composition, to exhaustion (about
# 20 s of the race pass). Everything must pass with no findings for a
# change to land.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> one assembly site: only internal/run wires a simulation stack"
# internal/run is the one place a simulator, network, monitor, workload
# runner and deployment are put together (DESIGN.md "Run kernel"); the
# harness, the scenario engine and the commands produce Specs. algotest,
# examples/ and bench/ wire their own stacks on purpose: they test or
# show the layers, and bench/ is an independent reference for the kernel.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'simnet\.New\(|workload\.NewRunner\(|check\.NewMonitor\(|recovery\.Build\(' . |
    grep -vE '^\./(internal/run|internal/algorithms/algotest|examples|bench)/' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "ci: simulation stack assembled outside internal/run (see above)" >&2
    exit 1
fi
# The same holds for what the kernel derives from the Spec's grid: detector
# timeouts (StaggeredTimeouts) are computed in internal/run only, from
# Grid.MaxRTT(), per-kind counters are switched on there only, and the
# copies the harness and the scenario engine used to keep — which had
# drifted apart on Grid'5000 — stay deleted, with the three drive modes.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'StaggeredTimeouts\(' . |
    grep -vE '^\./internal/(run|recovery)/' ||
    grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'KindCounts' . |
    grep -vE '^\./internal/(run|simnet)/' ||
    grep -rnE --include='*.go' --exclude-dir=bench \
        'detectorKinds|func maxRTT|func driveError|stepUntilDone|WallClock' .; then
    echo "ci: a value internal/run derives is derived or set elsewhere again (see above)" >&2
    exit 1
fi

echo "==> one latency path: simnet's routing-table tiers stay deleted"
# simnet computes every latency as grid.RTT(ca, cb)/2 and has one size
# threshold, the unexported FIFO-store limit (DESIGN.md §14). The cached
# tables, the option that chose between them and their crossovers were
# measured and removed (ROADMAP earn-or-delete (2)); none may come back
# without new numbers.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'TableMode|TablesAuto|TablesDense|TablesFactored|clusterPairLimit|DenseNodeLimit' .; then
    echo "ci: a deleted simnet routing tier or threshold reappeared (see above)" >&2
    exit 1
fi

echo "==> one benchmark system: the BENCH_* records and their tooling stay deleted"
# bench/ with BENCHMARK.json is the repository's one benchmark (repeated
# units, medians, bounds). The single-shot records, the command that
# compared them and the record writer in gridbench were deleted (ROADMAP
# "One benchmark system" (1)); what they guarded is held by the goldens
# under testdata/golden/ and harness's TestGridScalePaper.
if grep -rnE --include='*.go' --exclude-dir=bench \
    'benchcmp|BENCH_[0-9]|gridbench/1|RunInfo|MemSample' .; then
    echo "ci: a deleted benchmark-record name reappeared outside bench/ (see above)" >&2
    exit 1
fi

echo "==> one front door: no environment switch, one workers convention"
# Nothing a test or a run does depends on an environment variable (the
# explorer's long mode is the only mode), and what a worker count means is
# decided in internal/fleet alone: <= 0 GOMAXPROCS, 1 inline on the caller
# (DESIGN.md "Run kernel"). The harness maps its zero value to 1 and
# gridbench its 0 to GOMAXPROCS; nothing else branches on a count.
if grep -rn --include='*.go' 'GRIDMUTEX_' . ||
    grep -rnE --include='*.go' --exclude-dir=bench 'workers (== 1|> 1|< 0)' . |
    grep -vE '^\./internal/fleet/'; then
    echo "ci: an environment switch or a second workers convention reappeared (see above)" >&2
    exit 1
fi

echo "==> one event queue: des's radix heap, nothing to set"
# des.eventQueue is the only priority queue in the product: one radix heap
# whose bucket for a key is a function of the key's instant and the clock
# (DESIGN.md §10). No second queue beside it, and none of the names of the
# heaps and the routing constant it replaced.
if grep -rnE --include='*.go' --exclude='*_test.go' '"container/heap"' . ||
    grep -rnE --include='*.go' 'farAfter|keyHeap|QueueKind' .; then
    echo "ci: a second event queue or a deleted queue tier reappeared (see above)" >&2
    exit 1
fi

echo "==> one record per process: simnet's side tables and core's copy-on-write instance table stay gone"
# A send and its delivery read one simnet record and one core.Process cache
# line on each side (DESIGN.md §10, §14). The record replaced the handler,
# node, sink and in-flight-list tables and the sink and endpoint types; two
# inline slots replaced the instance table. None may come back beside them.
# (livenet and reliable keep their own endpoint types and node maps.)
if grep -rnE --include='*.go' --exclude='*_test.go' \
    '\b(sinks|nodeOf|lastTo)\b|type (sink|endpoint) struct|atomic\.Pointer\[\[\]mutex\.Instance\]' \
    internal/simnet internal/core; then
    echo "ci: a per-process side table or type the records replaced reappeared (see above)" >&2
    exit 1
fi

echo "==> one record per application: the runner's timers are typed events, a Naimi node keeps no config"
# workload.Runner holds every application's state as one value in one dense
# slice, and its request and exit timers are des typed events whose handler
# is the runner (DESIGN.md §10, §14): no pointer table, no closure bound per
# process. A Naimi-Trehel node reads Members and Holder only in New, so it
# keeps no copy of the config.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    '\[\]\*appProc|func\(\) \{ r\.(request|exitCS)\(' internal/workload ||
    grep -rnE --include='*.go' --exclude='*_test.go' \
    '^[[:space:]]+cfg[[:space:]]+mutex\.Config' internal/algorithms/naimitrehel; then
    echo "ci: a per-process closure, pointer table or config copy reappeared (see above)" >&2
    exit 1
fi

echo "==> the harness keeps no records: grants stream into their digest"
# Harness runs fold each grant into their digest the instant it happens
# (run.Spec.OnGrant) and read the grant count from Outcome.Grants, so no run
# buffers an apps x CS record list (DESIGN.md "Run kernel", §14). The list
# stays for the scenario engine, gridsim -trace, bench/ and tests.
if grep -rnE --include='*.go' --exclude='*_test.go' '\.Records\b' internal/harness; then
    echo "ci: the harness reads a buffered record list again (see above)" >&2
    exit 1
fi

echo "==> one sweep driver: the harness's experiments are cells through one digest, one merge and one point type"
# Run, RunScalability, RunPhased, RunLocality, RunRecovery and RunPartition
# hand their cells to sweep, the one caller of runShards; repPartial and
# mergeCell are the only digest and merge, and harness.Point is every
# experiment's point (DESIGN.md §8). The recovery digest, the second driver
# and the per-experiment point types they replaced stay deleted. (bench/
# keeps its own runCells.)
if grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'recPartial|sweepRecovery|runCells|RecoveryPoint|PartitionPoint|ScalePoint' . ||
    [ "$(grep -rn --include='*.go' --exclude='*_test.go' 'runShards(' internal/harness | wc -l)" -gt 1 ]; then
    echo "ci: a second harness digest, driver, point type or runShards caller reappeared (see above)" >&2
    exit 1
fi

echo "==> percentiles stay out of the harness: its cells keep moments only"
# No committed table prints a percentile of a harness cell, so the cells'
# accumulators are compact (DESIGN.md §10); gridsim's one cell retains its
# samples through RunCell for exact percentiles. No t-digest sketch comes
# back into the harness.
if grep -rnE --include='*.go' --exclude='*_test.go' 'Sketch: true' internal/harness; then
    echo "ci: a harness accumulator sketches percentiles again (see above)" >&2
    exit 1
fi

echo "==> go test -race ./... (gridlint and the exhaustive schedule exploration included)"
go test -race ./...

echo "==> allocation regression without -race: steady-state send/deliver <= 1 alloc/message (simnet: on both FIFO stores), 0 through core.Process's envelope pool, 0 per heartbeat round, 0 per Suzuki-Kasami token arrival's RN/LN rebuild and 1 per request broadcast, 0 per forwarded Naimi-Trehel request, <= 1 per member-list check (0 up to 16 members), Runner.Bind flat in N, the event queue's slot array doubling, its buckets doubling into drained arrays (TestBucketGrowthAllocs), Reserve's one slot allocation (TestReserveAllocs)"
# The line above ran these in a race-instrumented build; the pins are
# claims about the plain build the benchmark and the commands run.
go test -run 'Allocs' ./internal/des/ ./internal/simnet/ ./internal/core/ ./internal/recovery/ ./internal/algorithms/naimitrehel/ ./internal/algorithms/suzukikasami/ ./internal/mutex/ ./internal/workload/

echo "==> event-queue order against a reference sort, 800 random schedules over both drivers"
go test -run 'TestPropertyTiersMatchReferenceSort' ./internal/des/ -quickchecks 2000

echo "==> scenario conformance corpus through the CLI (JSON verdicts archived)"
# The declarative acceptance suite (DESIGN.md §11): every fixture under
# testdata/scenarios/ must produce a passing verdict. The JSON verdict
# dump is the CI artifact — byte-identical across runs by the determinism
# contract, so a diff against a previous run pinpoints exactly which
# invariant or metric moved.
go run ./cmd/gridscenario -json testdata/scenarios > scenario-verdicts.json
# The committed broken fixtures must FAIL (exit 1) and name their
# offending invariant — proving the checker library can reject, not just
# rubber-stamp. An exit status of 0 here is itself the failure.
if go run ./cmd/gridscenario testdata/scenarios/broken >/dev/null 2>&1; then
    echo "ci: broken scenario fixtures unexpectedly passed" >&2
    exit 1
fi

echo "==> fuzz targets, 10s each"
go test -fuzz=FuzzDecode -fuzztime=10s -run '^$' ./internal/livenet/wire
go test -fuzz=FuzzLoad -fuzztime=10s -run '^$' ./internal/topology
go test -fuzz=FuzzLoadScenario -fuzztime=10s -run '^$' ./internal/scenario

echo "CI green"
