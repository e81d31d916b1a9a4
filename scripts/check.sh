#!/bin/sh
# check.sh — the repo's full verification gate.
#
# Runs, in order:
#   1. gofmt           every Go file formatted (the CI gofmt step)
#   2. go vet          static analysis over every package
#   3. go build        tier-1 compile check
#   4. go test         tier-1 test suite, with -shuffle=on so any
#                      test-order dependence (shared-state fixtures,
#                      package-level caches) fails loudly; the seed is
#                      printed on failure for replay via -shuffle=N
#   5. go test -race   the suite under the race detector, which
#                      exercises the online System's sampling/migration/
#                      watchdog goroutines and the chaos suite for data
#                      races. Runs with -short: the heavy experiment-
#                      shape tests in internal/exp take >10min under the
#                      ~15x race slowdown and have no concurrency of
#                      their own; the plain pass above covers them.
#   6. retry stress    the load generator's retry mode 50 times under
#                      the race detector: an ack that overtakes its
#                      send's return once left the final retry drain
#                      waiting forever, and only repetition shows it.
#   7. make loadtest   serving smoke: artload drives an in-process
#                      loopback server with 8 concurrent clients and a
#                      fixed seed, failing on any lost batch — the
#                      zero-loss serving contract, end to end over a
#                      real TCP socket.
#   8. exp tiers       N-tier chain smoke: the tier-crossover experiment
#                      at quick scale through the sched cache, so the
#                      chain machine + per-boundary agents + shadow-copy
#                      accounting run end to end on every gate.
#   9. perfbench       vet + tests of the nested benchmark module, which
#                      the root ./... patterns skip but which calls the
#                      harness, core and serve APIs.
#  10. microbenchmarks every Go benchmark under internal/ run once
#                      (-benchtime 1x), so the kernel benchmarks (lru
#                      Age, memsim access hot path, serve codec, rl,
#                      pebs, ema, ...) keep compiling and running.
#  11. docs-check      doc comments on every package and exported
#                      identifier, live relative links and #fragments in
#                      the Markdown docs, DESIGN.md section refs, and no
#                      exported function or method under internal/ that
#                      only tests reference (cmd/docscheck; the same
#                      command CI's docs-check step runs).
#
# Usage: scripts/check.sh  (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
test -z "$(gofmt -l .)"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== retry stress (go test -race -count=50 -run TestServeRetryDeliversAll)"
go test -race -count=50 -run 'TestServeRetryDeliversAll' ./internal/serve

echo "== make loadtest (serving smoke)"
make loadtest

echo "== exp tiers smoke (quick)"
go run ./cmd/artbench -exp tiers -quick -parallel 4 -outdir bench_results

echo "== perfbench module (go vet + go test)"
(cd perfbench && go vet ./... && go test ./...)

echo "== microbenchmark smoke (go test -run '^\$' -bench . -benchtime 1x ./internal/...)"
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "== make docs-check"
make docs-check

echo "check: all green"
