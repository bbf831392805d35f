#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the arguments given:
#
#   bash perfbench/run.sh --workload testbed-sim --seed 60802 --seconds 15 --trace 0
#
# Everything the build writes stays in .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
