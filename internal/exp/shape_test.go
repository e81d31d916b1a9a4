package exp

import (
	"fmt"
	"sync"
	"testing"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

// These tests assert the paper's headline *shapes* at bench scale. They
// are the repository's regression net for the reproduction itself: if a
// model change breaks "ArtMem adapts" or "MEMTIS over-migrates", these
// fail. They run tens of seconds; -short skips them.

// benchOptions returns the bench scale, the top-level benchmarks' scale
// too: large enough for the shapes to emerge.
func benchOptions() Options {
	return Options{
		Profile: workloads.Profile{
			Div:             128,
			PatternAccesses: 12_000_000,
			AppAccesses:     3_000_000,
			Seed:            1,
		},
	}
}

func benchScaleRatio() harness.Config {
	return harness.Config{Ratio: harness.Ratio{Fast: 1, Slow: 1}}
}

// shapeRuns memoises the shape tests' runs by workload, policy name and
// ratio. A run is deterministic, so the tests that share one (ArtMem on
// S1 and S2, Static on S2) compute it once per test binary.
var shapeRuns sync.Map // key → *shapeRun

type shapeRun struct {
	once sync.Once
	res  harness.Result
}

// runShape returns the bench-scale result of workload under the policy
// newPol builds, named name, at benchScaleRatio.
func runShape(workload, name string, newPol func(Options) policies.Policy) harness.Result {
	cfg := benchScaleRatio()
	v, _ := shapeRuns.LoadOrStore(fmt.Sprintf("%s/%s/%v", workload, name, cfg.Ratio), &shapeRun{})
	r := v.(*shapeRun)
	r.once.Do(func() {
		o := benchOptions()
		r.res = o.runOne(workload, newPol(o), cfg)
	})
	return r.res
}

func static(Options) policies.Policy { return policies.NewStatic() }

func artMem(o Options) policies.Policy { return o.ArtMemPolicy(core.Config{}) }

func memtis(Options) policies.Policy {
	return policies.NewMEMTIS(policies.MEMTISConfig{})
}

func TestShapeArtMemBeatsStaticOnAllPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	for _, pat := range []string{"S1", "S2", "S3", "S4"} {
		st := runShape(pat, "Static", static)
		art := runShape(pat, "ArtMem", artMem)
		if art.ExecNs >= st.ExecNs {
			t.Errorf("%s: ArtMem %.1fms not faster than Static %.1fms", pat,
				float64(art.ExecNs)/1e6, float64(st.ExecNs)/1e6)
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
	mt := runShape("S1", "MEMTIS", memtis)
	art := runShape("S1", "ArtMem", artMem)
	if art.Migrations*2 >= mt.Migrations {
		t.Errorf("ArtMem migrations (%d) not well below MEMTIS (%d) on S1",
			art.Migrations, mt.Migrations)
	}
	if art.DRAMRatio < mt.DRAMRatio-0.1 {
		t.Errorf("ArtMem ratio %.3f far below MEMTIS %.3f despite S1's small hot set",
			art.DRAMRatio, mt.DRAMRatio)
	}
}

func TestShapeMEMTISFailsOnRecencyPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	// Observation 1 / pattern S2: EMA-frequency systems retain stale
	// heat; MEMTIS improves little over Static while ArtMem's recency
	// sorting keeps adapting.
	st := runShape("S2", "Static", static)
	mt := runShape("S2", "MEMTIS", memtis)
	mclock := runShape("S2", "Multi-clock", func(Options) policies.Policy { return policies.NewMultiClock() })
	art := runShape("S2", "ArtMem", artMem)
	gain := func(r harness.Result) float64 { return float64(st.ExecNs) / float64(r.ExecNs) }
	// The paper has MEMTIS (with Nimble) worst on S2: its stale EMA heat
	// blocks the moving working set. Recency-driven systems must beat it.
	if gain(mt) >= gain(mclock) {
		t.Errorf("MEMTIS gain %.2fx not below Multi-clock %.2fx on S2",
			gain(mt), gain(mclock))
	}
	if gain(art) <= gain(mt) {
		t.Errorf("ArtMem gain %.2fx not above MEMTIS %.2fx on S2",
			gain(art), gain(mt))
	}
}

func TestShapePerformanceTracksDRAMRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale shape test")
	}
	// Observation 2 / Figure 3: strong positive correlation.
	o := benchOptions()
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
