#!/usr/bin/env bash
# bench.sh — record the perf trajectory.
#
# Runs the gps-bench perf experiment (sampling update paths, incremental
# snapshot stalls, the forward-decay update/accuracy numbers, the
# windowed-turnstile ingest/query/accuracy numbers, and the multi-tenant
# serve trajectory at 1/4/16 streams) and
# writes the machine-readable report to a BENCH json, which CI uploads as
# an artifact so successive PRs can be compared.
#
# Environment overrides: EDGES (stream length), SAMPLE (reservoir m),
# SHARDS (engine shard count), PROCS (comma-separated GOMAXPROCS sweep for
# the multi-core ingest trajectory; empty string skips it), OBS (set to 0
# to skip the observability-overhead measurement), PR (writes
# BENCH_PR$PR.json), OUT (explicit output path, overriding PR; default
# BENCH.json).
set -euo pipefail
cd "$(dirname "$0")/.."

EDGES=${EDGES:-1000000}
SAMPLE=${SAMPLE:-100000}
SHARDS=${SHARDS:-4}
PROCS=${PROCS:-1,2,4,8}
OBS=${OBS:-1}
if [ -n "${PR:-}" ]; then
  OUT=${OUT:-BENCH_PR${PR}.json}
else
  OUT=${OUT:-BENCH.json}
fi

# Observability overhead: run the obs experiment per build flavor
# (instrumented default vs the gps_noobs tag that compiles the hot-path
# instrumentation out) on the same stream, interleaved A/B over OBS_ROUNDS
# rounds so slow machine drift cancels, then hand all reports to the perf
# run, which min-merges each flavor's rounds and embeds the
# instrumented/noobs ratios under obs_overhead.
OBS_ROUNDS=${OBS_ROUNDS:-3}
OBS_ARGS=()
if [ "$OBS" = "1" ]; then
  obsdir=$(mktemp -d)
  trap 'rm -rf "$obsdir"' EXIT
  echo "measuring observability overhead (instrumented vs gps_noobs, $OBS_ROUNDS interleaved rounds)..." >&2
  go build -o "$obsdir/bench-instrumented" ./cmd/gps-bench
  go build -tags gps_noobs -o "$obsdir/bench-noobs" ./cmd/gps-bench
  instr_files= noobs_files=
  for round in $(seq 1 "$OBS_ROUNDS"); do
    "$obsdir/bench-instrumented" -exp obs -json \
      -edges "$EDGES" -sample "$SAMPLE" -shards "$SHARDS" > "$obsdir/obs-instrumented-$round.json"
    "$obsdir/bench-noobs" -exp obs -json \
      -edges "$EDGES" -sample "$SAMPLE" -shards "$SHARDS" > "$obsdir/obs-noobs-$round.json"
    instr_files="$instr_files${instr_files:+,}$obsdir/obs-instrumented-$round.json"
    noobs_files="$noobs_files${noobs_files:+,}$obsdir/obs-noobs-$round.json"
  done
  OBS_ARGS=(-obs-instrumented "$instr_files" -obs-noobs "$noobs_files")
fi

go run ./cmd/gps-bench -exp perf -json \
  -edges "$EDGES" -sample "$SAMPLE" -shards "$SHARDS" -procs "$PROCS" \
  "${OBS_ARGS[@]+"${OBS_ARGS[@]}"}" > "$OUT"

echo "wrote $OUT:"
cat "$OUT"
