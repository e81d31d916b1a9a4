// Graph analytics under tiered memory: run connected components over a
// power-law graph whose CSR arrays exceed the fast tier, under three
// tiering policies at two DRAM:PM ratios — the scenario from the paper's
// GAP evaluation (§6.2: graph performance "largely depends on data
// locality").
//
//	go run ./examples/graphanalytics
package main

import (
	"fmt"

	"artmem/internal/core"
	"artmem/internal/dist"
	"artmem/internal/graph"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

func main() {
	// Build a 50k-vertex power-law graph and lay it out across ~256MB of
	// virtual address space (stretched strides; see internal/graph).
	g := graph.GenPowerLaw(dist.NewRNG(7), 50_000, 600_000, false)
	layout := graph.NewLayout(g, 0, 256, 256, 512)
	fmt.Printf("graph: %d vertices, %d edges, %d MB layout\n\n",
		g.NumVertices(), g.NumEdges(), layout.Footprint()>>20)

	newWorkload := func() workloads.Workload {
		run := func(emit func(addr uint64, write bool)) {
			graph.ConnectedComponents(g, layout, emit)
		}
		w := workloads.NewTrace("CC", layout.Footprint(), run)
		return workloads.Limit(workloads.WithInitSweep(w, 0), 6_000_000)
	}

	systems := []struct {
		name string
		mk   func() policies.Policy
	}{
		{"Static", func() policies.Policy { return policies.NewStatic() }},
		{"AutoNUMA", func() policies.Policy { return policies.NewAutoNUMA() }},
		{"MEMTIS", func() policies.Policy { return policies.NewMEMTIS(policies.MEMTISConfig{}) }},
		{"ArtMem", func() policies.Policy { return core.New(core.Config{}) }},
	}

	for _, ratio := range []harness.Ratio{{Fast: 1, Slow: 2}, {Fast: 1, Slow: 8}} {
		fmt.Printf("DRAM:PM = %s\n", ratio)
		var staticNs int64
		for _, sys := range systems {
			r := harness.Run(newWorkload(), sys.mk(), harness.Config{
				PageSize: 32 << 10,
				Ratio:    ratio,
			})
			if sys.name == "Static" {
				staticNs = r.ExecNs
			}
			fmt.Printf("  %-9s exec %7.1f ms  (%.2fx vs static)  ratio %.3f  migrated %5.1f MB\n",
				sys.name, float64(r.ExecNs)/1e6,
				float64(staticNs)/float64(r.ExecNs),
				r.DRAMRatio, float64(r.MigratedBytes)/(1<<20))
		}
		fmt.Println()
	}
}
