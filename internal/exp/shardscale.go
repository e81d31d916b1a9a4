package exp

import (
	"fmt"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/textplot"
)

// ShardScale is the sharded-machine validation study (DESIGN.md §12).
// It is not a paper figure: it pins the scale-out substrate's two
// contracts before anything is built on it. Fidelity — how far the
// simulated outcome drifts as the machine is split into shards (each
// with its own page state, capacity split, cache slice and clock, and
// capacity never leaving its shard; one policy — one LRU set, one PEBS
// sampler, one agent — spans them all) — and determinism: the
// one-shard machine must reproduce the unsharded seed simulator bit
// for bit, and every cell must render identically at any scheduler
// worker count (the parallel-replay test runs this experiment at 1 and
// 8 workers and compares bytes).
func ShardScale() Experiment {
	return Experiment{
		ID:    "shardscale",
		Title: "Shard-scale study: fidelity and determinism of the sharded machine",
		Paper: "not in the paper — validates the sharded-machine substrate: 1 shard reproduces the seed exactly; drift stays bounded as shards grow",
		Run: func(o Options) []textplot.Table {
			shardCounts := []int{0, 1, 2, 4, 8}
			if o.Quick {
				shardCounts = []int{0, 1, 4}
			}
			works := []string{"YCSB", "XSBench"}
			if o.Quick {
				works = works[:1]
			}
			pols := []policySpec{baselineSpec("TPP"), o.artmemSpec(core.Config{})}
			ratio := harness.Ratio{Fast: 1, Slow: 4}

			g := o.newGrid()
			cell := map[[3]int]int{}
			for wi, w := range works {
				for pi, p := range pols {
					for si, n := range shardCounts {
						cell[[3]int{wi, pi, si}] = g.add(w, p, harness.Config{
							Ratio: ratio, Shards: n})
					}
				}
			}
			res := g.run()

			exec := textplot.Table{
				Title:  "Makespan by shard count, normalized to the unsharded seed",
				Header: append([]string{"workload", "system"}, shardHeaders(shardCounts)...),
				Note:   "shards=0 is the seed Machine; shards>=1 the sharded machine (1 delegates verbatim). ExecNs is the max shard clock, so N shards replaying in lockstep approach 1/N — the modeled parallel speedup, not simulation drift; fidelity drift is the ratio/migration columns below",
			}
			ident := textplot.Table{
				Title:  "Determinism and fidelity summary",
				Header: []string{"workload", "system", "1-shard == seed", "DRAM ratio (seed)", "DRAM ratio (max shards)", "migrations (seed)", "migrations (max shards)"},
			}
			for wi, w := range works {
				for pi, p := range pols {
					seed := res[cell[[3]int{wi, pi, 0}]]
					row := []any{w, p.name}
					for si := range shardCounts {
						r := res[cell[[3]int{wi, pi, si}]]
						row = append(row, normalize(float64(r.ExecNs), float64(seed.ExecNs)))
					}
					exec.AddRow(row...)

					one := res[cell[[3]int{wi, pi, 1}]]
					same := one.ExecNs == seed.ExecNs &&
						one.DRAMRatio == seed.DRAMRatio &&
						one.Migrations == seed.Migrations &&
						one.Misses == seed.Misses &&
						one.BackgroundNs == seed.BackgroundNs
					sameStr := "yes"
					if !same {
						sameStr = "NO — DETERMINISM BROKEN"
					}
					last := res[cell[[3]int{wi, pi, len(shardCounts) - 1}]]
					ident.AddRow(w, p.name, sameStr,
						seed.DRAMRatio, last.DRAMRatio,
						int(seed.Migrations), int(last.Migrations))
				}
			}
			return []textplot.Table{exec, ident}
		},
	}
}

// shardHeaders labels the shard-count sweep columns.
func shardHeaders(counts []int) []string {
	hs := make([]string, len(counts))
	for i, n := range counts {
		if n == 0 {
			hs[i] = "seed"
		} else {
			hs[i] = fmt.Sprintf("%d shard", n)
		}
	}
	return hs
}
