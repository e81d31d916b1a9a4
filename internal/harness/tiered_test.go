package harness

import (
	"fmt"
	"testing"

	"artmem/internal/core"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

// artmemMk returns a RunTiered agent factory with per-boundary seed
// decorrelation on top of cfg.
func artmemMk(cfg core.Config) func(b int) policies.EnvPolicy {
	return func(b int) policies.EnvPolicy {
		c := cfg
		c.Seed += uint64(b)
		return core.New(c)
	}
}

// TestRunTieredTwoTierMatchesRun pins the harness-level contract: the
// parsed "DRAM:cap=N/PM" chain, replayed through RunTiered's boundary
// decomposition, produces the same Result as Run on the default chain
// — same virtual time, same counters, same policy behaviour, bit for
// bit. It holds only while tier.Preset matches memsim's Table 2
// constants.
func TestRunTieredTwoTierMatchesRun(t *testing.T) {
	const pageSize = 64 * 1024
	ratio := Ratio{Fast: 1, Slow: 1}
	plain := Run(smallPattern(300_000), core.New(core.Config{SamplePeriod: 1}),
		Config{PageSize: pageSize, Ratio: ratio})

	fastPages := ratio.FastBytes(8<<20) / pageSize
	tiered := RunTiered(smallPattern(300_000), artmemMk(core.Config{SamplePeriod: 1}),
		Config{PageSize: pageSize, Ratio: ratio,
			TierChain: fmt.Sprintf("DRAM:cap=%d/PM", fastPages)})

	if tiered.Tiers == nil || len(tiered.Tiers.Names) != 2 {
		t.Fatalf("tiered run missing TierStats: %+v", tiered.Tiers)
	}
	type pinned struct {
		ExecNs        int64
		Accesses      int64
		Misses        uint64
		DRAMRatio     float64
		Migrations    uint64
		Promotions    uint64
		Demotions     uint64
		MigratedBytes uint64
		Faults        uint64
		Ticks         int
		BackgroundNs  float64
	}
	pin := func(r Result) pinned {
		return pinned{r.ExecNs, r.Accesses, r.Misses, r.DRAMRatio, r.Migrations,
			r.Promotions, r.Demotions, r.MigratedBytes, r.Faults, r.Ticks, r.BackgroundNs}
	}
	if got, want := pin(tiered), pin(plain); got != want {
		t.Errorf("two-tier chain diverged from Run:\n got %+v\nwant %+v", got, want)
	}
	if tiered.Tiers.BoundaryPromotions[0] != tiered.Promotions {
		t.Errorf("boundary promotions %d != machine promotions %d",
			tiered.Tiers.BoundaryPromotions[0], tiered.Promotions)
	}
}

// pingPong returns a workload whose hot set alternates between two
// regions each phase, so pages repeatedly heat, cool, and reheat — the
// access pattern where non-exclusive migration pays (demote = free
// discard onto the still-clean shadow).
func pingPong(phases int, accessesPerPhase int64) workloads.Workload {
	const foot = 8 << 20
	pat := &workloads.Pattern{Name: "ping-pong", Footprint: foot}
	for i := 0; i < phases; i++ {
		start := int64(4 << 20)
		if i%2 == 1 {
			start = 6 << 20
		}
		pat.Phases = append(pat.Phases, workloads.Phase{
			Name:     fmt.Sprintf("phase-%d", i),
			Accesses: accessesPerPhase,
			Regions: []workloads.Region{
				{Start: start, Size: 1 << 20, Weight: 0.95},
				{Start: 0, Size: foot, Weight: 0.05},
			},
		})
	}
	return workloads.WithInitSweep(pat.NewWorkload(1), 0)
}

// TestNonExclusiveAvoidsReMigration pins the tentpole's payoff (ISSUE
// 10 acceptance): on a ping-pong workload, non-exclusive mode completes
// a measurable share of demotions as free shadow discards and moves
// strictly fewer bytes than exclusive mode on the identical replay.
func TestNonExclusiveAvoidsReMigration(t *testing.T) {
	cfg := Config{PageSize: 64 * 1024, TierChain: "DRAM:cap=48/PM",
		CacheLines: -1, CheckInvariants: true}
	mk := artmemMk(core.Config{SamplePeriod: 1})

	excl := RunTiered(pingPong(8, 150_000), mk, cfg)
	necfg := cfg
	necfg.NonExclusive = true
	nonx := RunTiered(pingPong(8, 150_000), mk, necfg)

	if excl.InvariantErr != nil || nonx.InvariantErr != nil {
		t.Fatalf("invariants: excl=%v nonx=%v", excl.InvariantErr, nonx.InvariantErr)
	}
	if excl.Tiers.ShadowDiscards != 0 {
		t.Fatalf("exclusive run reported %d shadow discards", excl.Tiers.ShadowDiscards)
	}
	if nonx.Tiers.ShadowDiscards == 0 {
		t.Fatalf("non-exclusive run never discarded onto a shadow (demotions=%d)",
			nonx.Demotions)
	}
	if nonx.MigratedBytes >= excl.MigratedBytes {
		t.Errorf("non-exclusive moved %d bytes, exclusive %d — shadows saved nothing",
			nonx.MigratedBytes, excl.MigratedBytes)
	}
}

// TestRunTieredThreeTier smoke-tests a full 3-tier replay with
// invariant checking: the middle tier participates (it serves
// accesses and both boundaries migrate) and accounting stays clean.
func TestRunTieredThreeTier(t *testing.T) {
	cfg := Config{PageSize: 64 * 1024,
		TierChain:       "DRAM:cap=12.5%/CXL:cap=25%/PM",
		CacheLines:      -1,
		CheckInvariants: true}
	r := RunTiered(smallPattern(400_000), artmemMk(core.Config{SamplePeriod: 1}), cfg)
	if r.InvariantErr != nil {
		t.Fatalf("invariants: %v", r.InvariantErr)
	}
	ts := r.Tiers
	if ts == nil || len(ts.Names) != 3 {
		t.Fatalf("TierStats: %+v", ts)
	}
	if ts.Names[1] != "CXL" {
		t.Fatalf("tier names %v", ts.Names)
	}
	var acc uint64
	for _, a := range ts.Accesses {
		acc += a
	}
	if acc != r.Misses {
		t.Errorf("per-tier accesses sum %d != misses %d", acc, r.Misses)
	}
	if ts.Accesses[1] == 0 {
		t.Errorf("middle tier served no accesses")
	}
	if ts.BoundaryPromotions[1]+ts.BoundaryDemotions[1] == 0 {
		t.Errorf("lower boundary never migrated")
	}
	if r.Promotions != ts.BoundaryPromotions[0]+ts.BoundaryPromotions[1] {
		t.Errorf("promotion attribution mismatch: %d != %v", r.Promotions, ts.BoundaryPromotions)
	}
}

// TestRunRejectsTierChain pins the guard: the single-agent Run path
// refuses chain configs instead of silently ignoring them.
func TestRunRejectsTierChain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a TierChain config")
		}
	}()
	Run(smallPattern(1000), policies.NewStatic(), Config{
		PageSize: 64 * 1024, TierChain: "DRAM:cap=4/PM"})
}

// TestRunTieredDeterministic pins the purity contract for chain runs:
// identical inputs yield identical Results, the property the sched
// cache and parallel experiment replay rest on.
func TestRunTieredDeterministic(t *testing.T) {
	cfg := Config{PageSize: 64 * 1024, CacheLines: -1,
		TierChain: "DRAM:cap=12.5%/CXL:cap=25%/PM", NonExclusive: true}
	mk := artmemMk(core.Config{SamplePeriod: 1})
	a := RunTiered(pingPong(4, 100_000), mk, cfg)
	b := RunTiered(pingPong(4, 100_000), mk, cfg)
	if a.ExecNs != b.ExecNs || a.Migrations != b.Migrations ||
		a.MigratedBytes != b.MigratedBytes || a.DRAMRatio != b.DRAMRatio ||
		a.Tiers.ShadowDiscards != b.Tiers.ShadowDiscards {
		t.Errorf("chain replay not deterministic:\n a %+v\n b %+v", a, b)
	}
}
