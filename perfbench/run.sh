#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temp files) stays under .bench_build/ in the working directory;
# the compiler's chatter goes to stderr so the result line stays last on
# stdout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
