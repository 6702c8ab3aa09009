#!/usr/bin/env bash
# Builds the benchmark and joinoptd from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload adaptive-8k --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and the benchmark's state directories
# stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod or perfbench/go.mod missing)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/joinoptd" ./cmd/joinoptd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --joinoptd "$out/joinoptd" --out "$out/run" "$@"
