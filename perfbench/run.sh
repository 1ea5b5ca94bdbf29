#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build at
# the checkout root and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-ladder --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files, GOPATH and the go command's config
# directory (its telemetry counters) stay under .bench_build too, so a
# run writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"
