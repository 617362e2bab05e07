#!/usr/bin/env bash
# The host-time gate: run the repository's benchmark (bench/, BENCHMARK.json)
# on two trees on THIS machine, alternating which side goes first, and let
# `bench --compare` judge the change against its parent by the benchmark's
# own bounds. No committed baseline, no calibration: both sides see the same
# cores, the same Go and the same neighbours.
#
#   perf-pair.sh <base-tree> <seconds> <pairs>     (run from the change's root)
#
# Pair i runs every workload at seed i on both trees. Leaves base.jsonl and
# head.jsonl in the working directory. Exit code is bench --compare's: 1 when
# a metric is worse than its bound or a run was incorrect, 0 on ok or
# unresolved, 2 when the two sets cannot be compared.
set -euo pipefail
base=$(cd "$1" && pwd) head=$PWD seconds=$2 pairs=$3
tmp=${RUNNER_TEMP:-$(mktemp -d)}

rm -f base.jsonl head.jsonl
for i in $(seq 1 "$pairs"); do
  sides="base head"
  if ((i % 2 == 0)); then sides="head base"; fi
  for side in $sides; do
    # --out per side: service-mixed keeps its tenants' state directories there.
    go run -C "${!side}/bench" vinfra/bench --seed "$i" --seconds "$seconds" \
      --out "$tmp/perf-pair-$side" --json "$head/$side.jsonl"
  done
done
go run -C bench vinfra/bench --compare "$head/base.jsonl" "$head/head.jsonl"
