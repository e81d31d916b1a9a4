package exp

import (
	"fmt"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/sched"
	"artmem/internal/textplot"
	"artmem/internal/workloads"
)

// Tiers is the N-tier chain crossover study (DESIGN.md §13). It is not
// a paper figure: it answers the two questions the chain subsystem
// exists for. First, when does a middle CXL tier pay — at which DRAM
// scarcity does DRAM/CXL/PM beat DRAM/PM, and when is the third tier
// pure migration overhead? Second, how much re-migration does
// non-exclusive (Nomad-style) migration avoid — on a phase-shifting
// workload, what share of demotions complete as free shadow discards,
// and how many migrated bytes do the shadows save?
//
// Every cell replays through harness.RunTiered (one pretrained ArtMem
// agent per tier boundary) and the shared scheduler cache, so the study
// is cacheable and parallel-replay deterministic like every other
// experiment.
func Tiers() Experiment {
	return Experiment{
		ID:    "tiers",
		Title: "Tier-chain study: CXL middle-tier crossover and non-exclusive migration",
		Paper: "not in the paper — validates the N-tier subsystem: 3-tier pays where DRAM is scarce; shadows turn re-demotions into free discards",
		Run: func(o Options) []textplot.Table {
			works := []string{"S2", "YCSB"}
			dramPcts := []float64{6.25, 12.5, 25, 50}
			if o.Quick {
				works = works[:1]
				dramPcts = []float64{12.5, 50}
			}

			g := o.newGrid()

			// Crossover sweep: 2-tier vs 3-tier at each DRAM scarcity.
			// The CXL tier holds a fixed 25% of the footprint; what varies
			// is how much of the hot set spills past DRAM.
			type key struct {
				wi, pi int
				tiers  int
			}
			cell := map[key]int{}
			for wi, w := range works {
				for pi, pct := range dramPcts {
					two := fmt.Sprintf("DRAM:cap=%g%%/PM", pct)
					three := fmt.Sprintf("DRAM:cap=%g%%/CXL:cap=25%%/PM", pct)
					cell[key{wi, pi, 2}] = o.tieredCell(g, w, harness.Config{TierChain: two})
					cell[key{wi, pi, 3}] = o.tieredCell(g, w, harness.Config{TierChain: three})
				}
			}

			// Non-exclusive study on a scarce 3-tier chain, exclusive vs
			// shadow-copy. PingPong is the pattern shadows exist for: a
			// read-mostly hot set alternating between two regions, so
			// pages heat, cool, and reheat while their shadows stay
			// clean. S2 is the write-heavy contrast — its stores
			// invalidate shadows before demotion can use them.
			const neChain = "DRAM:cap=12.5%/CXL:cap=25%/PM"
			neWorks := []string{"PingPong", "S2"}
			ne := map[[2]int]int{} // workload × {0: exclusive, 1: non-exclusive}
			for wi, w := range neWorks {
				mkW := o.neWorkload(w)
				ne[[2]int{wi, 0}] = o.tieredCellW(g, w, mkW, harness.Config{TierChain: neChain})
				ne[[2]int{wi, 1}] = o.tieredCellW(g, w, mkW, harness.Config{
					TierChain: neChain, NonExclusive: true})
			}
			res := g.run()

			cross := textplot.Table{
				Title:  "Middle-tier crossover: 3-tier (DRAM/CXL/PM) makespan normalized to 2-tier (DRAM/PM)",
				Header: []string{"workload", "DRAM cap", "2-tier exec (ms)", "3-tier / 2-tier", "DRAM ratio (2t)", "DRAM ratio (3t)", "CXL accesses"},
				Note:   "<1 means the CXL tier pays: overflow heat lands at 180ns instead of 323ns. The win shrinks as DRAM grows and the hot set fits without help",
			}
			for wi, w := range works {
				for pi, pct := range dramPcts {
					two := res[cell[key{wi, pi, 2}]]
					three := res[cell[key{wi, pi, 3}]]
					var cxl uint64
					if three.Tiers != nil && len(three.Tiers.Accesses) == 3 {
						cxl = three.Tiers.Accesses[1]
					}
					cross.AddRow(w, fmt.Sprintf("%g%%", pct),
						float64(two.ExecNs)/1e6,
						normalize(float64(three.ExecNs), float64(two.ExecNs)),
						two.DRAMRatio, three.DRAMRatio, int(cxl))
				}
			}

			shadow := textplot.Table{
				Title:  "Non-exclusive migration on " + neChain + ": demotions completed as free shadow discards",
				Header: []string{"workload", "mode", "migrations", "migrated MB", "shadow discards", "discard share", "invalidates", "exec (ms)"},
				Note:   "a discard is a demotion whose bytes never move: the clean shadow left by the earlier promotion is still valid. Discard share = discards / demotions",
			}
			for wi, w := range neWorks {
				for mi, mode := range []string{"exclusive", "non-exclusive"} {
					r := res[ne[[2]int{wi, mi}]]
					var disc, inval uint64
					if r.Tiers != nil {
						disc, inval = r.Tiers.ShadowDiscards, r.Tiers.ShadowInvalidates
					}
					share := 0.0
					if r.Demotions > 0 {
						share = float64(disc) / float64(r.Demotions)
					}
					shadow.AddRow(w, mode, int(r.Migrations),
						float64(r.MigratedBytes)/(1<<20), int(disc), share,
						int(inval), float64(r.ExecNs)/1e6)
				}
			}
			return []textplot.Table{cross, shadow}
		},
	}
}

// tieredCell declares one RunTiered cell over a registry workload.
func (o Options) tieredCell(g *grid, workload string, cfg harness.Config) int {
	return o.tieredCellW(g, workload, func() workloads.Workload {
		spec, err := workloads.ByName(workload)
		if err != nil {
			panic(err)
		}
		return spec.New(o.Profile)
	}, cfg)
}

// tieredCellW declares one RunTiered cell: the workload replayed on
// cfg.TierChain with one pretrained ArtMem agent per tier boundary
// (seeds decorrelated per boundary, the way core.TieredSystem gives
// boundary b Seed+b). The cache key carries the chain and shadow mode
// through cfg's canonical form plus a "tiered" extra separating these
// cells from plain Run cells; name must identify the workload the way
// a registry name does.
func (o Options) tieredCellW(g *grid, name string, mkW func() workloads.Workload, cfg harness.Config) int {
	if cfg.PageSize == 0 {
		cfg.PageSize = o.Profile.PageSize()
	}
	id := artmemID("Liblinear", 0, core.Config{}) + "|per-boundary"
	return g.addCell(sched.Key(name, o.Profile, id, cfg, "tiered"), func() harness.Result {
		mig, thr := TrainTables(o, "Liblinear", 0)
		mk := func(b int) policies.EnvPolicy {
			c := core.Config{PretrainedMig: mig, PretrainedThr: thr}
			c.Seed += uint64(b)
			return core.New(c)
		}
		res := harness.RunTiered(mkW(), mk, cfg)
		o.logf("  %s@%s: exec=%.1fms ratio=%.3f mig=%d disc=%d",
			res.Workload, cfg.TierChain, float64(res.ExecNs)/1e6,
			res.DRAMRatio, res.Migrations, res.Tiers.ShadowDiscards)
		return res
	})
}

// neWorkload returns the constructor for a non-exclusive-study
// workload: the registry workloads by name, plus the PingPong pattern —
// a read-mostly hot set alternating between two regions each phase, the
// access shape where demote-onto-shadow pays.
func (o Options) neWorkload(name string) func() workloads.Workload {
	if name != "PingPong" {
		return func() workloads.Workload {
			spec, err := workloads.ByName(name)
			if err != nil {
				panic(err)
			}
			return spec.New(o.Profile)
		}
	}
	return func() workloads.Workload {
		p := o.Profile
		foot := p.Bytes(32)
		hot := p.Bytes(6)
		const phases = 6
		pat := &workloads.Pattern{Name: "PingPong", Footprint: foot}
		for i := 0; i < phases; i++ {
			start := foot / 8
			if i%2 == 1 {
				start = foot * 5 / 8
			}
			pat.Phases = append(pat.Phases, workloads.Phase{
				Name:      fmt.Sprintf("phase-%d", i),
				Accesses:  p.PatternAccesses / phases,
				WriteFrac: 0.02,
				Regions: []workloads.Region{
					{Start: start, Size: hot, Weight: 0.95},
					{Start: 0, Size: foot, Weight: 0.05},
				},
			})
		}
		return workloads.WithInitSweep(pat.NewWorkload(p.Seed), 0)
	}
}
