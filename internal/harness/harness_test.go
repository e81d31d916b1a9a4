package harness

import (
	"testing"

	"artmem/internal/core"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

func TestRatioString(t *testing.T) {
	if got := (Ratio{Fast: 1, Slow: 4}).String(); got != "1:4" {
		t.Errorf("String = %q", got)
	}
}

// TestParseRatio pins the -ratio rule of artmemd, masim and artrace:
// a DRAM share of at least 1, a PM share of at least 0 (1:0 is DRAM
// only), both at most 65536, and nothing trailing.
func TestParseRatio(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Ratio
		ok   bool
	}{
		{"1:4", Ratio{1, 4}, true},
		{"1:0", Ratio{1, 0}, true},
		{"2:1", Ratio{2, 1}, true},
		{"65536:65536", Ratio{65536, 65536}, true},
		{"0:0", Ratio{}, false},
		{"0:4", Ratio{}, false},
		{"1:-1", Ratio{}, false},
		{"1:-2", Ratio{}, false},
		{"-1:4", Ratio{}, false},
		{"1:4x", Ratio{}, false},
		{"1", Ratio{}, false},
		{"", Ratio{}, false},
		{"1:4:2", Ratio{}, false},
		{"1:100000", Ratio{}, false},
		{"100000:1", Ratio{}, false},
	} {
		got, err := ParseRatio(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseRatio(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestRatioFastBytes(t *testing.T) {
	cases := []struct {
		r    Ratio
		foot int64
		want int64
	}{
		{Ratio{Fast: 1, Slow: 1}, 1000, 500},
		{Ratio{Fast: 2, Slow: 1}, 900, 600},
		{Ratio{Fast: 1, Slow: 4}, 1000, 200},
		{Ratio{Fast: 1, Slow: 0}, 777, 777},
	}
	for _, tc := range cases {
		if got := tc.r.FastBytes(tc.foot); got != tc.want {
			t.Errorf("%s.FastBytes(%d) = %d, want %d", tc.r, tc.foot, got, tc.want)
		}
	}
}

func TestPaperRatiosMatchEvaluation(t *testing.T) {
	want := []string{"2:1", "1:1", "1:2", "1:4", "1:8", "1:16"}
	if len(PaperRatios) != len(want) {
		t.Fatalf("got %d ratios", len(PaperRatios))
	}
	for i, r := range PaperRatios {
		if r.String() != want[i] {
			t.Errorf("ratio %d = %s, want %s", i, r, want[i])
		}
	}
}

// smallPattern returns a quick synthetic workload for harness tests.
func smallPattern(accesses int64) workloads.Workload {
	pat := &workloads.Pattern{
		Name:      "hot-in-upper-half",
		Footprint: 8 << 20,
		Phases: []workloads.Phase{{
			Name:     "p",
			Accesses: accesses,
			Regions: []workloads.Region{
				{Start: 5 << 20, Size: 1 << 20, Weight: 0.9},
				{Start: 0, Size: 8 << 20, Weight: 0.1},
			},
		}},
	}
	return workloads.WithInitSweep(pat.NewWorkload(1), 0)
}

func TestRunProducesConsistentResult(t *testing.T) {
	r := Run(smallPattern(300_000), policies.NewStatic(), Config{
		PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 1}})
	if r.Workload != "hot-in-upper-half" || r.Policy != "Static" {
		t.Errorf("labels = %q/%q", r.Workload, r.Policy)
	}
	if r.Accesses < 300_000 {
		t.Errorf("accesses = %d", r.Accesses)
	}
	if r.ExecNs <= 0 {
		t.Errorf("exec = %d", r.ExecNs)
	}
	if r.DRAMRatio < 0 || r.DRAMRatio > 1 {
		t.Errorf("DRAMRatio = %g", r.DRAMRatio)
	}
	if r.Ticks == 0 {
		t.Errorf("no policy ticks fired")
	}
	if r.Misses == 0 || r.Misses > uint64(r.Accesses) {
		t.Errorf("misses = %d of %d", r.Misses, r.Accesses)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		return Run(smallPattern(200_000), core.New(core.Config{Seed: 3}), Config{
			PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 2}})
	}
	a, b := run(), run()
	if a.ExecNs != b.ExecNs || a.Migrations != b.Migrations ||
		a.DRAMRatio != b.DRAMRatio {
		t.Errorf("identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestRunCollectSeries(t *testing.T) {
	r := Run(smallPattern(300_000), core.New(core.Config{}), Config{
		PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 1}, CollectSeries: true})
	if r.MigrationSeries.Len() == 0 {
		t.Errorf("no migration series collected")
	}
	if r.RatioSeries.Len() == 0 {
		t.Errorf("no ratio series collected")
	}
	// Series timestamps are within the run.
	for _, ts := range r.MigrationSeries.T {
		if ts <= 0 || ts > r.ExecNs {
			t.Fatalf("series timestamp %d outside (0, %d]", ts, r.ExecNs)
		}
	}
}

func TestSlowLatencyOverrideSlowsSlowHeavyRuns(t *testing.T) {
	// At ratio 1:8 most accesses hit the slow tier; tripling its latency
	// must lengthen execution.
	base := Run(smallPattern(200_000), policies.NewStatic(), Config{
		PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 8}})
	slow := Run(smallPattern(200_000), policies.NewStatic(), Config{
		PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 8}, SlowLatencyNs: 1000})
	if slow.ExecNs <= base.ExecNs {
		t.Errorf("1000ns slow tier (%d) not slower than 323ns (%d)",
			slow.ExecNs, base.ExecNs)
	}
}

func TestCacheLinesOverride(t *testing.T) {
	// Disabling the cache makes every access a miss.
	r := Run(smallPattern(100_000), policies.NewStatic(), Config{
		PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 1}, CacheLines: -1})
	if r.Misses != uint64(r.Accesses) {
		t.Errorf("cache disabled but misses %d != accesses %d", r.Misses, r.Accesses)
	}
}

func TestDefaultsApplied(t *testing.T) {
	// Zero config: 2MB pages, 1:1 ratio.
	r := Run(smallPattern(50_000), policies.NewStatic(), Config{})
	if r.Ratio.Fast != 1 || r.Ratio.Slow != 1 {
		t.Errorf("default ratio = %s", r.Ratio)
	}
}

func TestDRAMOnlyRunHasPerfectRatio(t *testing.T) {
	r := Run(smallPattern(100_000), policies.NewStatic(), Config{
		PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 0}})
	if r.DRAMRatio != 1 {
		t.Errorf("DRAM-only ratio = %g", r.DRAMRatio)
	}
}

func TestOverheadFraction(t *testing.T) {
	r := Result{ExecNs: 1000, BackgroundNs: 30}
	if got := r.OverheadFraction(); got != 0.03 {
		t.Errorf("OverheadFraction = %g", got)
	}
	if got := (Result{}).OverheadFraction(); got != 0 {
		t.Errorf("zero-exec OverheadFraction = %g", got)
	}
}

// ArtMem must beat Static on a hot-in-slow pattern at harness level —
// the repository's headline behaviour.
func TestArtMemBeatsStaticOnHotSlowPattern(t *testing.T) {
	// Small CPU cache (256KB) so the 1MB hot region actually reaches
	// memory, and a 1ms RL interval so the short run spans many periods.
	cfg := Config{PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 1},
		CacheLines: 1 << 12}
	static := Run(smallPattern(800_000), policies.NewStatic(), cfg)
	art := Run(smallPattern(800_000),
		core.New(core.Config{TickInterval: 1_000_000}), cfg)
	if art.ExecNs >= static.ExecNs {
		t.Errorf("ArtMem (%.1fms) not faster than Static (%.1fms)",
			float64(art.ExecNs)/1e6, float64(static.ExecNs)/1e6)
	}
	if art.DRAMRatio <= static.DRAMRatio {
		t.Errorf("ArtMem ratio %.3f not above Static %.3f",
			art.DRAMRatio, static.DRAMRatio)
	}
}

func TestTicksMonotoneWithInterval(t *testing.T) {
	r := Run(smallPattern(400_000), core.New(core.Config{TickInterval: 2_000_000}),
		Config{PageSize: 64 * 1024, Ratio: Ratio{Fast: 1, Slow: 1}, CollectSeries: true})
	for i := 1; i < r.MigrationSeries.Len(); i++ {
		if r.MigrationSeries.T[i] <= r.MigrationSeries.T[i-1] {
			t.Fatalf("tick timestamps not increasing at %d", i)
		}
		if gap := r.MigrationSeries.T[i] - r.MigrationSeries.T[i-1]; gap < 2_000_000 {
			t.Fatalf("ticks %d apart, below the 2ms interval", gap)
		}
	}
}
