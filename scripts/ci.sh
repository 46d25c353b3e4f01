#!/usr/bin/env bash
# ci.sh is the repository's CI gate: build, vet, gofmt, and the full test
# suite under the race detector. The race pass includes gridlint, run over
# the whole module with its exemption audit by internal/lint's
# TestGridlintSelfCheck: the determinism and concurrency analyzers and
# confine, whose table holds the structural rules (one assembly site, one
# workers convention, one event queue, no environment switch; DESIGN.md
# §6). It also includes the schedule exploration, to exhaustion: every one
# of the six algorithms flat on three processes, every ordered
# (intra, inter) pair of them composed on a 2 x 2 grid (36 pairs), and
# every fault row (crash, restart, partition; naimi and suzuki).
# Everything must pass with no findings for a change to land.
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

echo "==> non-test product lines outside bench/, examples/ and testdata/ (ROADMAP's Lines bullet; printed, not a gate)"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' ! -path '*/testdata/*' | xargs cat | wc -l

echo "==> go test -race ./... (gridlint and the exhaustive schedule exploration included)"
go test -race ./...

echo "==> allocation regression without -race: steady-state send/deliver <= 1 alloc/message (simnet: through its in-flight FIFO lists), 0 through core.Process's envelope pool, 0 per heartbeat round, 4 per Suzuki-Kasami token round (TestTokenRoundAllocs) and 1 per request broadcast, 0 per forwarded Naimi-Trehel request, 0 per ascending member-list check at any length and <= 1 per unsorted one (0 up to 16 members), BuildFlat's allocations per process flat from N = 10 to 180, Runner.Bind flat in N and the same bytes at 3 or 2^30 critical sections per process (TestBindAllocsIndependentOfCS), the event queue's slot array doubling, its buckets doubling into drained arrays (TestBucketGrowthAllocs), Reserve's one slot allocation (TestReserveAllocs), recovery.Build within 1,020 bytes per process with every hook set, and the same with none, with its processes in one dense arena-backed table and one shared Group value per group (TestBuildAllocsPerProcess, whose byte pins hold in this plain build only: the race pass above runs its structural checks; the Member <= 256 bytes pin, TestMemberLayout, runs in the race pass above)"
# The line above ran these in a race-instrumented build; the pins are
# claims about the plain build the benchmark and the commands run.
go test -run 'Allocs' ./internal/des/ ./internal/simnet/ ./internal/core/ ./internal/recovery/ ./internal/algorithms/naimitrehel/ ./internal/algorithms/suzukikasami/ ./internal/mutex/ ./internal/workload/

echo "==> event-queue order against a reference sort, 800 random schedules over both drivers"
go test -run 'TestPropertyTiersMatchReferenceSort' ./internal/des/ -quickchecks 2000

echo "==> scenario conformance corpus through the CLI (JSON verdicts against scenario-verdicts.json)"
# The declarative acceptance suite (DESIGN.md §11): every fixture under
# testdata/scenarios/ must produce a passing verdict. The JSON verdict
# dump is byte-identical across runs by the determinism contract, so it
# must equal the committed scenario-verdicts.json; a diff pinpoints
# exactly which invariant or metric moved. A change meant to move it
# commits the regenerated file. The command is built once, not run through
# `go run`, which reports every non-zero exit as 1 and so would hide a load
# error (exit 2) behind a failing verdict (exit 1).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/gridscenario" ./cmd/gridscenario
status=0
"$tmp/gridscenario" -json testdata/scenarios > "$tmp/verdicts.json" || status=$?
if [ "$status" -ne 0 ]; then
    echo "ci: gridscenario exited $status on the corpus, want 0" >&2
    exit 1
fi
if ! cmp -s scenario-verdicts.json "$tmp/verdicts.json"; then
    echo "ci: scenario verdicts differ from scenario-verdicts.json:" >&2
    diff -u scenario-verdicts.json "$tmp/verdicts.json" >&2 || true
    exit 1
fi
# The committed broken fixtures must load and FAIL (exit exactly 1) and
# name their offending invariant — proving the checker library can reject,
# not just rubber-stamp. Exit 0 (a pass) and exit 2 (a fixture that no
# longer loads) are both failures of this gate.
status=0
"$tmp/gridscenario" testdata/scenarios/broken > /dev/null 2> "$tmp/broken.err" || status=$?
if [ "$status" -ne 1 ]; then
    echo "ci: gridscenario exited $status on the broken fixtures, want 1 (each loads and fails)" >&2
    cat "$tmp/broken.err" >&2
    exit 1
fi

echo "==> fuzz targets, 10s each"
go test -fuzz=FuzzDecode -fuzztime=10s -run '^$' ./internal/livenet/wire
go test -fuzz=FuzzLoad -fuzztime=10s -run '^$' ./internal/topology
go test -fuzz=FuzzLoadScenario -fuzztime=10s -run '^$' ./internal/scenario
go test -fuzz=FuzzConfigValidate -fuzztime=10s -run '^$' ./internal/mutex
go test -fuzz=FuzzBuild -fuzztime=10s -run '^$' ./internal/run
go test -fuzz=FuzzDrive -fuzztime=10s -run '^$' ./internal/run

echo "CI green"
