#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload fleet-cache --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too, so
# a run reads and writes nothing outside the checkout except the Go
# toolchain itself.  Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
