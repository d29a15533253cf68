#!/usr/bin/env bash
# Repo verification: build, gofmt, vet, lint, full tests, a race-detector tier,
# and a protocol conformance tier.
#
# The benchmark module (benchmark/, its own go.mod) is vetted too: the
# root `go build ./...` skips it, yet it calls proto.DirCtrl, link and
# memory APIs directly, so an API change must not silently break it.
#
# The lint tier builds cmd/hmglint and runs the full analyzer suite
# (determinism, eventemit, exhaustive, hotalloc, readonlyhooks) over
# the module in one process, which threads facts along import edges in
# dependency order; any finding fails the script via the tool's
# nonzero exit. The tier then proves the interprocedural hotalloc
# analyzer has teeth: in a scratch copy of the repo, an injected
# hot-path allocation must fail with exit 2 naming the analyzer.
#
# The race tier runs the whole module at -short scale (the experiment
# suites are ~10x slower under -race) plus the full experiments package,
# which carries the concurrent campaign runner and must stay race-clean
# at full scale.
#
# The conformance tier runs the hmgcheck sweep (seeded litmus cases plus
# the benchmark suite under every protocol with the invariant checker
# attached) and a short burst of coverage-guided litmus fuzzing.
#
# The scaling smoke tier runs one benchmark on a 16x8 machine (128
# global GPMs, the whole sharer id space, so flat NHCC tracks ids 64-127
# in the second bitmap word) under the invariant checker, for both the
# flat and hierarchical hardware protocols.
#
# The spec tier runs cmd/hmgspec: the machine-readable Table I is
# validated and exhaustively enumerated on the small model through the
# transition function proto.DirCtrl executes — then each deliberate
# proto.Mutation bit is injected and the enumeration must FAIL,
# proving the tier has teeth.
#
# The store tier runs the persistent content-addressed result store
# (internal/resstore) through its acceptance flow at full campaign
# scope: a cold `hmgbench -fig all -scale 0.25 -cachedir` populates a
# scratch store, a warm rerun must execute zero simulations and emit
# byte-identical tables, and a deliberately truncated record must be
# re-simulated (to identical bytes again), never trusted.
#
# The store tier also checks the cold pass's sha256 against the digest
# pinned in scripts/fig-all-0.25.sha256 and that the cold pass simulated
# and read the store only in its prewarm, and the full-scale tier runs
# `hmgbench -fig all` at scale 1 with no store and cmps it with the
# committed experiments_output.txt (the only gate where the L1 hits).
#
# The perf tier runs cmd/hmgperf against the newest committed
# BENCH_*.json baseline: simulated cycles and event counts must match
# exactly (the simulator is deterministic), and allocs/event and the
# bytes each cell's Run and gsim.New allocate must not grow past a small
# tolerance — the hot path is not yet zero-alloc (the
# BENCH_2026-10-19.json baseline measures 0.0001-0.0005 allocs/event
# and 3.0-3.3 MB per Run across the matrix), so the gate blocks growth;
# wall-clock drift only warns.
# It reuses the store tier's populated -cachedir, which cross-checks
# every store record it touches against the freshly measured
# cycles/events — a second determinism tripwire. It then runs the same
# matrix on the 16x8 machine against PERF_16x8.json, named outside the
# BENCH_*.json glob so the newest-baseline pick stays 4x4 (about 25 s).
#
# The benchmark fingerprint tier runs the repo benchmark's matrix and
# campaign-fig8 workloads for one second each: every cell's cycles,
# events, ops, L1/L2 hits and invalidation messages must equal the
# fingerprints pinned in benchmark/, which the run reports as
# "correct":true on its last line.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== gofmt"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
  echo "gofmt -l lists unformatted files:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go vet (benchmark module)"
(cd benchmark && go vet ./...)

echo "== hmglint"
HMGLINT_BIN="$(mktemp -d)/hmglint"
trap 'rm -rf "$(dirname "$HMGLINT_BIN")"' EXIT
go build -o "$HMGLINT_BIN" ./cmd/hmglint
"$HMGLINT_BIN" ./...

echo "== hmglint mutation self-test (hotalloc)"
LINT_SCRATCH="$(dirname "$HMGLINT_BIN")/scratch"
mkdir -p "$LINT_SCRATCH"
tar -c --exclude=.git . | tar -x -C "$LINT_SCRATCH"

# An allocation on a Handle hot path must be caught by hotalloc.
cat > "$LINT_SCRATCH/internal/gsim/zz_injected.go" <<'EOF'
package gsim

var zzSink []int

type zzHog struct{}

func (h *zzHog) Handle() { zzSink = append(zzSink, 1) }
EOF
set +e
LINT_OUT="$(cd "$LINT_SCRATCH" && "$HMGLINT_BIN" ./... 2>&1)"
LINT_STATUS=$?
set -e
if [ "$LINT_STATUS" -ne 2 ] || ! echo "$LINT_OUT" | grep -q "hotalloc"; then
  echo "hotalloc missed an injected hot-path allocation (exit $LINT_STATUS): the analyzer has no teeth" >&2
  echo "$LINT_OUT" >&2
  exit 1
fi
rm -rf "$LINT_SCRATCH"
echo "hmglint: injected hot-path allocation caught (teeth OK)"

echo "== go test"
go test ./...

echo "== go test -race (short, all packages)"
go test -race -short ./...

echo "== go test -race (full, experiments)"
go test -race ./internal/experiments/...

echo "== Table I spec certification (hmgspec)"
HMGSPEC_BIN="$(dirname "$HMGLINT_BIN")/hmgspec"
go build -o "$HMGSPEC_BIN" ./cmd/hmgspec
"$HMGSPEC_BIN"
for bit in 1 2 4; do
  if "$HMGSPEC_BIN" -mutate "$bit" >/dev/null 2>&1; then
    echo "hmgspec -mutate $bit passed: the spec enumerator has no teeth" >&2
    exit 1
  fi
done
echo "hmgspec: all 3 mutation bits break a Table I invariant (teeth OK)"

echo "== conformance sweep (hmgcheck)"
go run ./cmd/hmgcheck -seeds 64 -scale 0.1

echo "== scaling smoke (16x8 machine, both sharer-bitmap words, checker attached)"
go run ./cmd/hmgsim -bench bfs -protocol NHCC -topo 16x8 -scale 0.1 -check >/dev/null
go run ./cmd/hmgsim -bench bfs -protocol HMG -topo 16x8 -scale 0.1 -check >/dev/null
echo "scaling smoke: NHCC and HMG clean at 16x8 (128 global GPMs)"

echo "== litmus fuzz smoke"
go test ./internal/check -fuzz=FuzzLitmus -fuzztime=10s

# check_fig_sha fails unless the sha256 of a `hmgbench -fig all -scale
# 0.25` output equals the one pinned in scripts/fig-all-0.25.sha256. A
# change that moves a figure re-pins that file and says why in
# CHANGES.md.
check_fig_sha() {
  local got want
  got="$(sha256sum < "$1" | cut -d' ' -f1)"
  want="$(cat scripts/fig-all-0.25.sha256)"
  if [ "$got" != "$want" ]; then
    echo "-fig all -scale 0.25 output sha256 $got differs from the pinned $want" >&2
    exit 1
  fi
  echo "fig all at scale 0.25: sha256 matches scripts/fig-all-0.25.sha256"
}

# check_prewarm_only fails unless the campaign totals of an `hmgbench
# -v` log equal its prewarm line's counts: the figures then simulated
# and read the store only in the prewarm, so none asked for a run that
# its recorded plan missed.
check_prewarm_only() {
  local prewarm campaign
  prewarm="$(sed -n 's/^prewarm: .*; \([0-9]*\) served from disk store, \([0-9]*\) simulated$/\2 simulated, \1 from disk/p' "$1")"
  campaign="$(sed -n 's/^campaign: \([0-9]*\) unique runs, [0-9]* memo hits, \([0-9]*\) disk hits,.*/\1 simulated, \2 from disk/p' "$1")"
  if [ -z "$prewarm" ] || [ "$prewarm" != "$campaign" ]; then
    echo "campaign totals ($campaign) differ from its prewarm ($prewarm): a figure asked for a run its recorded plan missed" >&2
    exit 1
  fi
  echo "cold campaign simulated and read the store only in its prewarm: $prewarm"
}

echo "== campaign store tier (cold populate, warm serves all from disk, corruption re-simulates)"
HMGBENCH_BIN="$(dirname "$HMGLINT_BIN")/hmgbench"
go build -o "$HMGBENCH_BIN" ./cmd/hmgbench
STORE_SCRATCH="$(dirname "$HMGLINT_BIN")/store"
RESSTORE_DIR="${HMG_RESSTORE_DIR:-$STORE_SCRATCH/resstore}"
mkdir -p "$STORE_SCRATCH"
echo "store stamp: $("$HMGBENCH_BIN" -storeversion)"
"$HMGBENCH_BIN" -fig all -scale 0.25 -cachedir "$RESSTORE_DIR" -v \
  > "$STORE_SCRATCH/cold.txt" 2> "$STORE_SCRATCH/cold.log"
grep "^campaign:" "$STORE_SCRATCH/cold.log"
# The fresh cold pass must reproduce the pinned scale-0.25 digest.
check_fig_sha "$STORE_SCRATCH/cold.txt"
check_prewarm_only "$STORE_SCRATCH/cold.log"
"$HMGBENCH_BIN" -fig all -scale 0.25 -cachedir "$RESSTORE_DIR" -v \
  > "$STORE_SCRATCH/warm.txt" 2> "$STORE_SCRATCH/warm.log"
grep "^campaign:" "$STORE_SCRATCH/warm.log"
cmp "$STORE_SCRATCH/cold.txt" "$STORE_SCRATCH/warm.txt"
if ! grep -q "^campaign: 0 unique runs" "$STORE_SCRATCH/warm.log"; then
  echo "warm campaign simulated runs the store should have served" >&2
  exit 1
fi
# A damaged record must be a miss: truncate one and the rerun must
# re-simulate exactly that run, to identical output bytes.
# sed reads all of sort's output: `head -1` would exit early and, under
# pipefail, sort's SIGPIPE would fail the script once the list outgrows
# the pipe buffer.
VICTIM="$(find "$RESSTORE_DIR" -name '*.res' | sort | sed -n 1p)"
truncate -s -1 "$VICTIM"
"$HMGBENCH_BIN" -fig all -scale 0.25 -cachedir "$RESSTORE_DIR" -v \
  > "$STORE_SCRATCH/healed.txt" 2> "$STORE_SCRATCH/healed.log"
grep "^campaign:" "$STORE_SCRATCH/healed.log"
cmp "$STORE_SCRATCH/cold.txt" "$STORE_SCRATCH/healed.txt"
if ! grep -q "^campaign: 1 unique runs" "$STORE_SCRATCH/healed.log"; then
  echo "truncated store record was not re-simulated (or took others with it)" >&2
  exit 1
fi
echo "store: warm campaign byte-identical with 0 simulations; truncated record re-simulated"

echo "== full-scale campaign (fresh, no store; cmp against experiments_output.txt)"
# The committed full-scale output is the figure contract: a fresh
# `-fig all` must reproduce it byte for byte (about 6-8 min on 2 cores).
# A change that moves a figure regenerates the file and says why in
# CHANGES.md; the diff names the figure that moved.
"$HMGBENCH_BIN" -fig all > "$STORE_SCRATCH/full.txt"
if ! cmp "$STORE_SCRATCH/full.txt" experiments_output.txt; then
  diff "$STORE_SCRATCH/full.txt" experiments_output.txt | head -40 >&2
  echo "full-scale -fig all differs from experiments_output.txt" >&2
  exit 1
fi
echo "full-scale campaign: byte-identical to experiments_output.txt"

echo "== perf gate (hmgperf, cross-checked against the store)"
BENCH_BASELINE="$(ls BENCH_*.json | sort | tail -1)"
if [ -z "$BENCH_BASELINE" ]; then
  echo "no committed BENCH_*.json baseline found" >&2
  exit 1
fi
go run ./cmd/hmgperf -against "$BENCH_BASELINE" -cachedir "$RESSTORE_DIR"
go run ./cmd/hmgperf -topo 16x8 -against PERF_16x8.json

echo "== benchmark fingerprint gate (pinned per-cell simulated fingerprints)"
for wl in matrix campaign-fig8; do
  BENCH_LAST="$(bash benchmark/run.sh --workload "$wl" --seed 0 --seconds 1 --trace 0 | tail -1)" || true
  if ! echo "$BENCH_LAST" | grep -q '"correct":true'; then
    echo "benchmark $wl does not match its pinned fingerprints: $BENCH_LAST" >&2
    exit 1
  fi
  echo "benchmark $wl: fingerprints match"
done

echo "verify OK"
