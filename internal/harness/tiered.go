package harness

import (
	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

// TierStats captures the per-tier and per-boundary outcome of an
// N-tier (RunTiered) run. Slices are indexed by tier (0 = fastest) and
// by boundary (b = the edge between tiers b and b+1).
type TierStats struct {
	// Names are the chain tier names ("DRAM", "CXL", ...).
	Names []string
	// Used, Capacity, and ShadowPages are the end-of-run occupancy per
	// tier; Accesses the cache-missing accesses each tier served.
	Used        []int
	Capacity    []int
	ShadowPages []int
	Accesses    []uint64
	// BoundaryPromotions/Demotions/Discards are cumulative migration
	// counts per boundary; Discards is the subset of demotions that
	// completed as free shadow discards (non-exclusive mode).
	BoundaryPromotions []uint64
	BoundaryDemotions  []uint64
	BoundaryDiscards   []uint64
	// Shadow-transaction totals (all zero in exclusive mode).
	ShadowDiscards    uint64
	ShadowInvalidates uint64
	ShadowReclaims    uint64
}

// RunTiered replays workload w on an N-tier chain machine (Config.
// TierChain) with one two-tier policy agent per tier boundary,
// decomposed through a memsim.BoundaryHub. mk constructs boundary b's
// agent — callers decorrelate seeds per boundary there, the way
// core.TieredSystem gives boundary b Seed+b. The replay loop, purity
// contract, and Result semantics match Run; Result.Tiers additionally
// carries the per-tier occupancy and per-boundary migration outcome.
//
// A two-tier chain is the control: one boundary, one agent, and (for
// a chain carrying the default tier parameters) results byte-identical
// to Run on the default chain — pinned by
// TestRunTieredTwoTierMatchesRun.
func RunTiered(w workloads.Workload, mk func(b int) policies.EnvPolicy, cfg Config) Result {
	defer w.Close()
	if cfg.TierChain == "" {
		panic("harness: RunTiered requires Config.TierChain")
	}
	m, inj, cfg := buildMachine(w.FootprintBytes(), cfg)
	hub := memsim.NewBoundaryHub(m)
	agents := make([]policies.EnvPolicy, hub.NumBoundaries())
	var interval int64
	for b := range agents {
		agents[b] = mk(b)
		agents[b].AttachEnv(hub.View(b))
		if iv := agents[b].Interval(); iv > interval {
			interval = iv
		}
	}

	r := newReplayRun(m, inj, cfg, w.Name(), agents[0].Name())
	// One decision period: every boundary agent in ascending order —
	// promotions into tier b land before boundary b+1 considers what
	// remains, so hot pages relay up the chain deterministically.
	r.replay(w, interval, func(now int64) {
		for _, a := range agents {
			a.Tick(now)
		}
	})
	res := r.finish()

	c := m.Counters()
	ts := &TierStats{
		ShadowDiscards:    c.ShadowDiscards,
		ShadowInvalidates: c.ShadowInvalidates,
		ShadowReclaims:    c.ShadowReclaims,
	}
	for t := 0; t < m.Tiers(); t++ {
		tid := memsim.TierID(t)
		ts.Names = append(ts.Names, m.TierName(tid))
		ts.Used = append(ts.Used, m.UsedPages(tid))
		ts.Capacity = append(ts.Capacity, m.CapacityPages(tid))
		ts.ShadowPages = append(ts.ShadowPages, m.ShadowPages(tid))
		ts.Accesses = append(ts.Accesses, m.TierAccesses(tid))
	}
	for b := 0; b < m.NumBoundaries(); b++ {
		bs := m.BoundaryStatsAt(b)
		ts.BoundaryPromotions = append(ts.BoundaryPromotions, bs.Promotions)
		ts.BoundaryDemotions = append(ts.BoundaryDemotions, bs.Demotions)
		ts.BoundaryDiscards = append(ts.BoundaryDiscards, bs.ShadowDiscards)
	}
	res.Tiers = ts
	return res
}
