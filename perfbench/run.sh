#!/usr/bin/env bash
# Builds gps-serve and the benchmark from the checkout in the current
# directory, then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, checkpoints and traces all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/gps-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/gps-serve and perfbench/)" >&2
	exit 2
fi
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/gps-serve" ./cmd/gps-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/gps-serve" -out "$out" "$@"
