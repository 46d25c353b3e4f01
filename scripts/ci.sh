#!/usr/bin/env bash
# ci.sh is the repository's CI gate: build, vet, gofmt, and the full test
# suite under the race detector. The race pass includes gridlint, run over
# the whole module with its exemption audit by internal/lint's
# TestGridlintSelfCheck: the determinism and concurrency analyzers and
# confine, whose table holds the structural rules (one assembly site, one
# workers convention, one event queue, no environment switch; DESIGN.md
# §6). It also includes the schedule exploration, to exhaustion: every one
# of the seven algorithms flat on three processes, and one composition,
# Naimi-Martin on a 2 x 2 grid (about 20 s of the race pass). Everything
# must pass with no findings for a change to land.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (the lint corpus under testdata/ is unformatted on purpose)"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "ci: not gofmt-clean:" >&2
    echo "$unformatted" >&2
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
