#!/usr/bin/env bash
# Repo verification: build, vet, lint, full tests, a race-detector tier,
# and a protocol conformance tier.
#
# The benchmark module (benchmark/, its own go.mod) is vetted too: the
# root `go build ./...` skips it, yet it calls proto.DirCtrl, link and
# memory APIs directly, so an API change must not silently break it.
#
# The lint tier builds cmd/hmglint and runs the full analyzer suite
# (determinism, eventemit, exhaustive, hotalloc, readonlyhooks) over
# the module, both standalone and through `go vet -vettool` (the
# unitchecker protocol threads facts along import edges, so both paths
# must stay green); any finding fails the script via the tool's
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
# The scaling smoke tier runs one benchmark on an 8x8 machine (64
# global GPMs — past the 32-id inline sharer word, so flat NHCC runs on
# the promoted sparse sharer sets) under the invariant checker, for both
# the flat and hierarchical hardware protocols.
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
# The perf tier runs cmd/hmgperf against the newest committed
# BENCH_*.json baseline: simulated cycles and event counts must match
# exactly (the simulator is deterministic), and allocs/event must not
# grow past a small tolerance — the hot path is not yet zero-alloc (the
# BENCH_2026-10-17d.json baseline measures 0.002-0.014 allocs/event
# across the matrix), so the gate blocks growth; wall-clock drift only
# warns.
# It reuses the store tier's populated -cachedir, which cross-checks
# every store record it touches against the freshly measured
# cycles/events — a second determinism tripwire.
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

echo "== go vet"
go vet ./...

echo "== go vet (benchmark module)"
(cd benchmark && go vet ./...)

echo "== hmglint"
HMGLINT_BIN="$(mktemp -d)/hmglint"
trap 'rm -rf "$(dirname "$HMGLINT_BIN")"' EXIT
go build -o "$HMGLINT_BIN" ./cmd/hmglint
"$HMGLINT_BIN" ./...

echo "== go vet -vettool=hmglint"
go vet -vettool="$HMGLINT_BIN" ./...

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

echo "== scaling smoke (8x8 machine, promoted sharer sets, checker attached)"
go run ./cmd/hmgsim -bench bfs -protocol NHCC -topo 8x8 -scale 0.1 -check >/dev/null
go run ./cmd/hmgsim -bench bfs -protocol HMG -topo 8x8 -scale 0.1 -check >/dev/null
echo "scaling smoke: NHCC and HMG clean at 8x8 (64 global GPMs)"

echo "== litmus fuzz smoke"
go test ./internal/check -fuzz=FuzzLitmus -fuzztime=10s

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

echo "== perf gate (hmgperf, cross-checked against the store)"
BENCH_BASELINE="$(ls BENCH_*.json | sort | tail -1)"
if [ -z "$BENCH_BASELINE" ]; then
  echo "no committed BENCH_*.json baseline found" >&2
  exit 1
fi
go run ./cmd/hmgperf -against "$BENCH_BASELINE" -cachedir "$RESSTORE_DIR"

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
