#!/usr/bin/env bash
# Regenerates bench/results/latest.json: builds the benchmark once, then
# runs every workload timed and traced, each run in a process of its own,
# and merges the records with the host they were taken on.
#
#   bench/run.sh                  # seed 42, one repetition
#   bench/run.sh -reps 5          # median and quartiles over five
#   bench/run.sh -seed 7 -out bench/results/seed7.json
#
# A capture from a one-processor host is written with "noisy": true and
# says so on stderr. Compare two captures with
#   go run ./bench -compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
go build -o .bench_build/tsbench ./bench
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="$commit-dirty"
fi
exec .bench_build/tsbench -workload all -commit "$commit" "$@"
