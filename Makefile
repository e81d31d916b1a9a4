# Tier-1 verify (fast, what CI gates on): build + test.
# `make check` is the full gate; scripts/check.sh lists its steps.

SHA := $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo dev)

.PHONY: all build test check race vet docs-check bench-baseline benchdiff loadtest perf

all: build

build:
	go build ./...

test: build
	go test ./...

vet:
	go vet ./...

race:
	go test -race -short ./...

check:
	sh scripts/check.sh

# Serving smoke: artload drives an in-process loopback server end to end
# — 8 concurrent clients, fixed seed, small batches so the default queue
# bound never sheds. artload exits non-zero if any batch is lost (sent
# but never acked or rejected) or any client fails, so this pins the
# zero-loss serving contract. Runs with 1-in-64 span sampling so the
# smoke also exercises the latency-attribution path; the run ledger
# (one JSON object incl. the span-derived stage breakdown) and the
# /spans + /slo drains land in loadtest_results/ (uploaded as CI
# artifacts).
loadtest:
	mkdir -p loadtest_results
	go run ./cmd/artload -loopback -clients 8 -accesses 20000 -batch 256 -div 4096 -seed 1 \
		-spans 64 -json \
		-spans-out loadtest_results/spans.jsonl \
		-slo-out loadtest_results/slo.json \
		> loadtest_results/ledger.json
	@echo "loadtest ledger:" && cat loadtest_results/ledger.json

# Documentation gate: every package and exported identifier needs a doc
# comment, every relative link in *.md, #fragment included, must
# resolve, and every exported function or method under internal/ needs
# a non-test reference (cmd/docscheck).
docs-check:
	go run ./cmd/docscheck

# Regression watch: the simulation is deterministic, so the quick bench
# suite produces byte-stable tables and any drift is a real behaviour
# change. `bench-baseline` blesses the current tree's numbers;
# `benchdiff` reruns the suite and fails on >10% movement (or a vanished
# benchmark) against the committed baseline. Run bench-baseline and
# commit the result whenever a change intentionally moves the numbers.
bench-baseline:
	go run ./cmd/artbench -all -quick -parallel 4 -outdir bench_results
	cp bench_results/BENCH_$(SHA).json bench_results/BENCH_baseline.json
	@echo "baseline blessed: bench_results/BENCH_baseline.json (from $(SHA))"

benchdiff:
	go run ./cmd/artbench -all -quick -parallel 4 -outdir bench_results
	go run ./cmd/artdiff bench -threshold 0.10 \
		bench_results/BENCH_baseline.json bench_results/BENCH_$(SHA).json

# Perf trajectory: runs perfbench (perfbench/run.sh) for its four
# workloads at --trace 0 and --trace 1 and appends one JSON line per run,
# host metadata included, to bench_results/PERF_<sha>.json. Commit that
# file as the before/after of a speed claim. Takes about 4 minutes of
# wall clock, so it is not part of `make check`.
perf:
	bash scripts/perf.sh
