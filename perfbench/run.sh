#!/usr/bin/env bash
# Builds the benchmark and spsimd from the checkout it is run in, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-latency --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under one build directory,
# $CARGO_TARGET_DIR when set (the variable benchmark runners use for it),
# else .bench_build in the current directory: the Go build cache, both
# binaries, spsimd cache directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/spsimd" ./cmd/spsimd
(cd perfbench/_harness && go build -o "$out/perfbench" .)

# Flags may be written with one dash or two; Go's flag package takes either.
exec "$out/perfbench" -root "$root" -work "$out/run" -spsimd "$out/spsimd" "$@"
