#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from the checkout's
# sources, then runs it. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload tunnel-rtt --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, result files) stays in
# the build directory inside the checkout: $CARGO_TARGET_DIR when set,
# else .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout of the program" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/results"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
# The go command keeps its telemetry counters and env file under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# With telemetry on, the go command starts a detached sidecar process that
# outlives it. "go telemetry off" starts none and turns it off for every
# later go command that uses this config directory.
go telemetry off

go build -buildvcs=false -o "$build/bin/" ./cmd/tapboard ./cmd/tapnode >&2
(cd perfbench && go build -buildvcs=false -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -out "$build/results" "$@"
