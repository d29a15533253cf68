#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload matrix --seed 0 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary campaign stores and span
# files all go to .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
  GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOTELEMETRY=off
go build -C "$here" -o "$out/hmgbenchmark" . >&2
cd "$root"
exec "$out/hmgbenchmark" -workdir "$out" "$@"
