#!/usr/bin/env bash
# Builds the benchmark and mincutd from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig5-solve --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout (Go build cache included); diagnostics go to standard error.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
(cd "$root" && go build -o "$out/mincutd" ./cmd/mincutd) >&2
cd "$root"
exec "$out/perfbench" --mincutd "$out/mincutd" --workdir "$out" "$@"
