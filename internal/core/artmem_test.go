package core

import (
	"math"
	"testing"

	"artmem/internal/lru"
	"artmem/internal/memsim"
	"artmem/internal/rl"
)

// testMachine builds a small machine: 64 pages of 64KiB, fastPages in
// the fast tier, no CPU cache.
func testMachine(fastPages int) *memsim.Machine {
	cfg := memsim.DefaultConfig(64*64*1024, int64(fastPages)*64*1024, 64*1024)
	cfg.CacheLines = 0
	return memsim.NewMachine(cfg)
}

func TestDefaultsMatchPaper(t *testing.T) {
	a := New(Config{})
	if k != 10 {
		t.Errorf("k = %d, want 10", k)
	}
	if numStates != 12 {
		t.Errorf("states = %d, want 12 (paper §5)", numStates)
	}
	if len(migrationPages) != 9 {
		t.Errorf("migration actions = %d, want 9 (paper §5)", len(migrationPages))
	}
	if migrationPages[0] != 0 || migrationPages[8] != 1024 {
		t.Errorf("migration ladder = %v", migrationPages)
	}
	for i := 1; i < 8; i++ {
		if migrationPages[i+1] != 2*migrationPages[i] {
			t.Errorf("ladder not doubling at %d: %v", i, migrationPages)
		}
	}
	if len(thresholdDeltas) != 5 {
		t.Errorf("threshold actions = %d, want 5", len(thresholdDeltas))
	}
	if thresholdDeltas[thresholdZeroAction] != 0 {
		t.Errorf("thresholdDeltas[%d] = %d, want the 0 delta", thresholdZeroAction,
			thresholdDeltas[thresholdZeroAction])
	}
	if math.Abs(a.cfg.Alpha-math.Exp(-2)) > 1e-12 ||
		math.Abs(a.cfg.Gamma-math.Exp(-1)) > 1e-12 ||
		a.cfg.Epsilon != 0.3 || a.cfg.Beta != 9 {
		t.Errorf("hyperparameters = %g/%g/%g/%g", a.cfg.Alpha, a.cfg.Gamma,
			a.cfg.Epsilon, a.cfg.Beta)
	}
}

func TestAttachInitializesPerAlgorithm1(t *testing.T) {
	a := New(Config{})
	a.Attach(testMachine(16))
	// Line 1: Q(k, 0) = 1, everything else 0.
	if got := a.qMig.Q(10, 0); got != 1 {
		t.Errorf("Q(k,0) = %g, want 1", got)
	}
	for s := 0; s < 12; s++ {
		for act := 0; act < 9; act++ {
			if s == 10 && act == 0 {
				continue
			}
			if a.qMig.Q(s, act) != 0 {
				t.Errorf("Q(%d,%d) = %g, want 0", s, act, a.qMig.Q(s, act))
			}
		}
	}
	// Line 2: τ₋₁ = k.
	if a.state != 10 {
		t.Errorf("initial state = %d, want k", a.state)
	}
	if a.threshold < minThreshold {
		t.Errorf("initial threshold %d below floor %d", a.threshold, minThreshold)
	}
}

func TestObserveStateEquation1(t *testing.T) {
	a := New(Config{})
	m := testMachine(16)
	a.Attach(m)
	// Feed the sampler directly: 7 fast events, 3 slow events → τ = ⌊7·10/10⌋ = 7.
	for i := 0; i < 7; i++ {
		a.sampler.OnMiss(0, memsim.Fast, false, 0)
	}
	for i := 0; i < 3; i++ {
		a.sampler.OnMiss(1, memsim.Slow, false, 0)
	}
	// SamplePeriod default is 5, so 10 events = 2 recorded samples; use a
	// period-1 sampler instead for exactness.
	a = New(Config{SamplePeriod: 1})
	a.Attach(testMachine(16))
	for i := 0; i < 7; i++ {
		a.sampler.OnMiss(0, memsim.Fast, false, 0)
	}
	for i := 0; i < 3; i++ {
		a.sampler.OnMiss(1, memsim.Slow, false, 0)
	}
	if got := a.observeState(); got != 7 {
		t.Errorf("state = %d, want 7", got)
	}
	// All fast → k.
	for i := 0; i < 5; i++ {
		a.sampler.OnMiss(0, memsim.Fast, false, 0)
	}
	if got := a.observeState(); got != 10 {
		t.Errorf("all-fast state = %d, want 10", got)
	}
	// No events → the dedicated k+1 state.
	if got := a.observeState(); got != 11 {
		t.Errorf("empty-window state = %d, want 11", got)
	}
}

func TestRewardEquation2(t *testing.T) {
	a := New(Config{})
	a.Attach(testMachine(16))
	// No migration in previous period: λ = 0, reward = τᵢ − β.
	a.migrated = false
	if got := a.reward(3, 7); got != 7-9 {
		t.Errorf("λ=0 reward = %g, want -2", got)
	}
	// Migration occurred: λ = 1, reward = τᵢ − β + (τᵢ − τᵢ₋₁).
	a.migrated = true
	if got := a.reward(3, 7); got != (7-9)+(7-3) {
		t.Errorf("λ=1 reward = %g, want 2", got)
	}
	// The no-sample state counts as fully cache-served (τ = k).
	a.migrated = false
	if got := a.reward(5, noSampleState); got != 10-9 {
		t.Errorf("no-sample reward = %g, want 1", got)
	}
}

func TestThresholdFloorAndCeiling(t *testing.T) {
	a := New(Config{})
	m := testMachine(16)
	a.Attach(m)
	a.threshold = minThreshold
	// Drive ticks with no samples; threshold deltas explore but must
	// never cross the bounds.
	for i := 0; i < 200; i++ {
		a.Tick(int64(i))
		if a.threshold < minThreshold {
			t.Fatalf("threshold %d below floor", a.threshold)
		}
		if a.threshold > minThreshold*16 {
			t.Fatalf("threshold %d above ceiling", a.threshold)
		}
	}
}

// buildHotColdMachine creates a machine where pages 0..15 fill the fast
// tier (cold) and pages 16..31 are hot in the slow tier, with ArtMem
// attached and fed enough samples that the hot pages qualify.
func buildHotColdMachine(t *testing.T, cfg Config) (*ArtMem, *memsim.Machine) {
	t.Helper()
	cfg.SamplePeriod = 1
	cfg.Epsilon = 0.0001 // near-greedy for determinism
	a := New(cfg)
	m := testMachine(16)
	a.Attach(m)
	ps := uint64(m.PageSize())
	// First-touch: fill fast with pages 0..15, then 16..31 go slow.
	for p := uint64(0); p < 32; p++ {
		m.Access(p*ps, false)
	}
	// Hot accesses to slow pages 16..31.
	for round := 0; round < 20; round++ {
		for p := uint64(16); p < 32; p++ {
			m.Access(p*ps, false)
		}
	}
	a.PumpSamples()
	return a, m
}

func TestMigratePromotesHotDemotesCold(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{})
	before := m.Counters()
	n := a.migrate(8)
	if n != 8 {
		t.Fatalf("migrate(8) promoted %d", n)
	}
	c := m.Counters()
	if c.Promotions-before.Promotions != 8 {
		t.Errorf("promotions = %d", c.Promotions-before.Promotions)
	}
	// The fast tier was full, so 8 demotions must have made room.
	if c.Demotions-before.Demotions != 8 {
		t.Errorf("demotions = %d", c.Demotions-before.Demotions)
	}
	// Promoted pages land at the head of the fast active list (§4.3).
	head := a.lists.Head(lru.FastActive)
	if m.TierOf(head) != memsim.Fast {
		t.Errorf("fast-active head page is in %v", m.TierOf(head))
	}
	if a.hist.Count(head) == 0 {
		t.Errorf("fast-active head is not one of the hot pages")
	}
}

func TestMigrateZeroIsNoOp(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{})
	before := m.Counters().Migrations
	if n := a.migrate(0); n != 0 {
		t.Errorf("migrate(0) promoted %d", n)
	}
	if m.Counters().Migrations != before {
		t.Errorf("migrate(0) migrated pages")
	}
}

func TestDisableSortingPreservesStatus(t *testing.T) {
	a, _ := buildHotColdMachine(t, Config{DisableSorting: true})
	// Take a page from the slow INACTIVE list and verify it lands on the
	// fast INACTIVE list after promotion.
	p := a.lists.Tail(lru.SlowInactive)
	if p == memsim.NoPage {
		t.Skip("no slow-inactive page in this configuration")
	}
	// Force-qualify and place it at the head of the active list to be a
	// candidate — instead call insertAfterMigration directly, which is
	// the behaviour under test.
	a.insertAfterMigration(p, memsim.Fast, false)
	if got := a.lists.ListOf(p); got != lru.FastInactive {
		t.Errorf("status-preserving insertion put page on %v", got)
	}
	// The aggressive default puts everything on the active head.
	b, _ := buildHotColdMachine(t, Config{})
	q := b.lists.Tail(lru.SlowInactive)
	if q == memsim.NoPage {
		t.Skip("no slow-inactive page")
	}
	b.insertAfterMigration(q, memsim.Fast, false)
	if got := b.lists.ListOf(q); got != lru.FastActive {
		t.Errorf("aggressive insertion put page on %v", got)
	}
}

func TestHeuristicModeUsesCapacityThreshold(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{DisableRL: true})
	// Keep the hot set warm so it is still on the active list at tick
	// time (an idle working set ages to inactive, as it should).
	for p := uint64(16); p < 32; p++ {
		m.Access(p*uint64(m.PageSize()), false)
	}
	before := m.Counters().Promotions
	a.Tick(1)
	if a.qMig.Updates() != 0 {
		t.Errorf("heuristic mode performed RL updates")
	}
	if m.Counters().Promotions == before {
		t.Errorf("heuristic mode never promoted hot pages")
	}
}

func TestEndToEndTicksImproveRatio(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{Seed: 7})
	ps := uint64(m.PageSize())
	// Run alternating access/tick rounds; the hot set (pages 16..31) must
	// end up in the fast tier.
	for round := 0; round < 60; round++ {
		for rep := 0; rep < 10; rep++ {
			for p := uint64(16); p < 32; p++ {
				m.Access(p*ps, false)
			}
		}
		a.Tick(m.Now())
	}
	inFast := 0
	for p := memsim.PageID(16); p < 32; p++ {
		if m.TierOf(p) == memsim.Fast {
			inFast++
		}
	}
	if inFast < 12 {
		t.Errorf("only %d of 16 hot pages promoted after 60 periods", inFast)
	}
}

func TestLatencyRewardRuns(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{LatencyReward: true})
	for i := 0; i < 10; i++ {
		for p := uint64(16); p < 32; p++ {
			m.Access(p*uint64(m.PageSize()), false)
		}
		a.Tick(m.Now())
	}
	if a.Decisions() != 10 {
		t.Errorf("decisions = %d", a.Decisions())
	}
	if a.Name() != "ArtMem-latency" {
		t.Errorf("name = %q", a.Name())
	}
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Config{
		"ArtMem":           {},
		"ArtMem-heuristic": {DisableRL: true},
		"ArtMem-nosort":    {DisableSorting: true},
		"ArtMem-base":      {DisableRL: true, DisableSorting: true},
		"ArtMem-sarsa":     {Algorithm: rl.SARSA},
	}
	for want, cfg := range cases {
		if got := New(cfg).Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestQTableTransplant(t *testing.T) {
	a := New(Config{})
	a.Attach(testMachine(16))
	mig, thr := a.QTables()
	mig.SetQ(3, 4, 0.5)
	b := New(Config{PretrainedMig: mig, PretrainedThr: thr})
	b.Attach(testMachine(16))
	bm, _ := b.QTables()
	if bm.Q(3, 4) != 0.5 {
		t.Errorf("pretrained Q not transplanted")
	}
	// Mismatched dimensions are rejected at Attach.
	other := rl.NewTable(rl.DefaultConfig(2, 2), nil)
	for name, cfg := range map[string]Config{
		"mig": {PretrainedMig: other},
		"thr": {PretrainedThr: other},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: dimension mismatch accepted", name)
				}
			}()
			New(cfg).Attach(testMachine(16))
		}()
	}
}

func TestRLOverheadTracked(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{})
	for i := 0; i < 5; i++ {
		a.Tick(m.Now())
	}
	if a.RLOverheadNs() <= 0 {
		t.Errorf("RL overhead not tracked")
	}
	// The paper promises ≤0.07% CPU: our per-tick charge must be tiny
	// compared to a 10ms interval.
	perTick := a.RLOverheadNs() / 5
	if perTick/1e7 > 0.0007 {
		t.Errorf("RL overhead %.5f%% of interval exceeds the paper's bound",
			100*perTick/1e7)
	}
}
