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
# "result" its result object, both verbatim.
#
# It then runs the kernel microbenchmarks (the memsim access hot path and
# cache lookup, the pebs drain, lru aging, the ema record, the RNG's
# bounded draw, the rl table's update and choice, the serve frame codec,
# the telemetry counter and histogram on nil receivers, the core access
# batch with page tracing off, sampled and on for every page, and the
# serve path with latency spans), five counts each, and appends one line
# per result with the same host object:
#
#   {"bench":"BenchmarkCacheLookup","pkg":"artmem/internal/memsim","ns_per_op":6.2,"bytes_per_op":0,"allocs_per_op":0,"host":{...}}
#
# <sha> is HEAD's short hash, with -dirty appended when tracked files
# differ from HEAD. Reruns append, so a file can hold several samples of
# one commit.
#
# Usage: scripts/perf.sh  (or: make perf; about 5 minutes, not part of
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

micro='AccessHotPath|CacheLookup|SamplerDrain|Age|Record|Uint64n|ServeDecode|ServeEncode|Update|Choose|CounterIncNil|HistogramObserveNil|AccessBatch|ServeSpans'
echo "== go test -bench '$micro' -benchmem -count 5 ./internal/..." >&2
results=$(go test -run '^$' -bench "$micro" -benchmem -count 5 ./internal/...)
printf '%s\n' "$results" >&2
printf '%s\n' "$results" | awk -v host="$host" '
	/^pkg: / { pkg = $2 }
	/^Benchmark/ {
		ns = bytes = allocs = "null"
		for (i = 3; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			if ($(i + 1) == "B/op") bytes = $i
			if ($(i + 1) == "allocs/op") allocs = $i
		}
		name = $1
		sub(/-[0-9]+$/, "", name)
		printf "{\"bench\":\"%s\",\"pkg\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s,\"host\":%s}\n",
			name, pkg, ns, bytes, allocs, host
		n++
	}
	END { printf "perf: %d microbenchmark results\n", n > "/dev/stderr" }' >>"$out"
echo "perf: appended 8 runs and the microbenchmarks to $out" >&2
