#!/usr/bin/env bash
# perf.sh — store one point of the perf trajectory.
#
# Runs the end-to-end benchmark (perfbench/run.sh) for each of its four
# workloads at --trace 0 (end-to-end metrics) and --trace 1 (per-layer
# metrics), seed 1, 25 s each, and appends one JSON line per run to
# bench_results/PERF_<sha>.json:
#
#   {"workload":"replay","seed":1,"seconds":25,"trace":0,"host":{...},"result":{...}}
#
# "host" is the benchmark's host line (CPU model, vCPUs, Go version) and
# "result" its result object, both verbatim. <sha> is HEAD's short hash,
# with -dirty appended when tracked files differ from HEAD. Reruns append,
# so a file can hold several samples of one commit.
#
# Usage: scripts/perf.sh  (or: make perf; about 4 minutes, not part of
# make check)
set -euo pipefail
cd "$(dirname "$0")/.."

sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo dev)
if ! git diff --quiet HEAD 2>/dev/null; then
	sha="$sha-dirty"
fi
out="bench_results/PERF_$sha.json"
mkdir -p bench_results

seed=1 seconds=25
for w in replay replay-chain serve serve-tenants; do
	for trace in 0 1; do
		echo "== perfbench $w --trace $trace" >&2
		log=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace")
		printf '%s\n' "$log" >&2
		host=$(printf '%s\n' "$log" | sed -n 's/^host //p')
		result=$(printf '%s\n' "$log" | tail -n 1)
		printf '{"workload":"%s","seed":%d,"seconds":%d,"trace":%d,"host":%s,"result":%s}\n' \
			"$w" "$seed" "$seconds" "$trace" "$host" "$result" >>"$out"
	done
done
echo "perf: appended 8 runs to $out" >&2
