#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload ehr-point --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all go to
# .bench_build/ under the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local

# Stamping the VCS revision fails when a repository around the checkout
# is unreadable; build without the stamp then.
(cd "$root/perfbench" && { go build -o "$out/perfbench" . ||
	go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" --root "$root" --spans-dir "$out" "$@"
