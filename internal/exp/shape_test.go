package exp

import (
	"fmt"
	"testing"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
)

// These tests assert the paper's headline *shapes* at bench scale. They
// are the repository's regression net for the reproduction itself: if a
// model change breaks "ArtMem adapts" or "MEMTIS over-migrates", these
// fail. They run tens of seconds; -short skips them.

func benchScaleRatio() harness.Config {
	return harness.Config{Ratio: harness.Ratio{Fast: 1, Slow: 1}}
}

func TestShapeArtMemBeatsStaticOnAllPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	o := BenchOptions()
	for _, pat := range []string{"S1", "S2", "S3", "S4"} {
		static := o.runOne(pat, policies.NewStatic(), benchScaleRatio())
		art := o.runOne(pat, o.ArtMemPolicy(core.Config{}), benchScaleRatio())
		if art.ExecNs >= static.ExecNs {
			t.Errorf("%s: ArtMem %.1fms not faster than Static %.1fms", pat,
				float64(art.ExecNs)/1e6, float64(static.ExecNs)/1e6)
		}
	}
}

func TestShapeMEMTISOverMigratesOnS1(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	// Observation 3: on S1 MEMTIS's capacity-derived threshold migrates
	// an order of magnitude more than needed; ArtMem migrates far less
	// while reaching a comparable DRAM ratio.
	o := BenchOptions()
	memtis := o.runOne("S1", policies.NewMEMTIS(policies.MEMTISConfig{}), benchScaleRatio())
	art := o.runOne("S1", o.ArtMemPolicy(core.Config{}), benchScaleRatio())
	if art.Migrations*2 >= memtis.Migrations {
		t.Errorf("ArtMem migrations (%d) not well below MEMTIS (%d) on S1",
			art.Migrations, memtis.Migrations)
	}
	if art.DRAMRatio < memtis.DRAMRatio-0.1 {
		t.Errorf("ArtMem ratio %.3f far below MEMTIS %.3f despite S1's small hot set",
			art.DRAMRatio, memtis.DRAMRatio)
	}
}

func TestShapeMEMTISFailsOnRecencyPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	// Observation 1 / pattern S2: EMA-frequency systems retain stale
	// heat; MEMTIS improves little over Static while ArtMem's recency
	// sorting keeps adapting.
	o := BenchOptions()
	static := o.runOne("S2", policies.NewStatic(), benchScaleRatio())
	memtis := o.runOne("S2", policies.NewMEMTIS(policies.MEMTISConfig{}), benchScaleRatio())
	mclock := o.runOne("S2", policies.NewMultiClock(), benchScaleRatio())
	art := o.runOne("S2", o.ArtMemPolicy(core.Config{}), benchScaleRatio())
	gain := func(r harness.Result) float64 { return float64(static.ExecNs) / float64(r.ExecNs) }
	// The paper has MEMTIS (with Nimble) worst on S2: its stale EMA heat
	// blocks the moving working set. Recency-driven systems must beat it.
	if gain(memtis) >= gain(mclock) {
		t.Errorf("MEMTIS gain %.2fx not below Multi-clock %.2fx on S2",
			gain(memtis), gain(mclock))
	}
	if gain(art) <= gain(memtis) {
		t.Errorf("ArtMem gain %.2fx not above MEMTIS %.2fx on S2",
			gain(art), gain(memtis))
	}
}

func TestShapePerformanceTracksDRAMRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	// Observation 2 / Figure 3: strong positive correlation.
	o := BenchOptions()
	o.Quick = true // patterns only; enough points for the correlation
	tables := Fig3().Run(o)
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("fig3 produced nothing")
	}
	for _, row := range tables[0].Rows {
		var r float64
		if _, err := fmt.Sscan(row[1], &r); err != nil {
			t.Fatalf("unparseable Pearson %q", row[1])
		}
		if r < 0.6 {
			t.Errorf("%s: Pearson %g below the paper's strong-correlation claim", row[0], r)
		}
	}
}
