package memsim

import (
	"testing"
	"testing/quick"

	"artmem/internal/telemetry"
)

// testConfig returns a small machine: 64 pages of 64KiB, 16 fast pages,
// no CPU cache (deterministic misses) unless cacheLines > 0.
func testConfig(cacheLines int) Config {
	cfg := DefaultConfig(64*64*1024, 16*64*1024, 64*1024)
	cfg.CacheLines = cacheLines
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero page size", func(c *Config) { c.PageSize = 0 }},
		{"zero footprint", func(c *Config) { c.FootprintBytes = 0 }},
		{"negative fast capacity", func(c *Config) { c.Chain[Fast].CapacityPages = -1 }},
		{"zero fast latency", func(c *Config) { c.Chain[Fast].LatencyNs = 0 }},
		{"zero slow read bw", func(c *Config) { c.Chain[Slow].ReadBWGBs = 0 }},
		{"interference > 1", func(c *Config) { c.MigrationInterference = 1.5 }},
		{"no chain", func(c *Config) { c.Chain = nil }},
		// One slot tags 65,535 lines; the footprint has 65,536.
		{"footprint past the cache tag bound", func(c *Config) { c.CacheLines = 1 }},
		{"zero-capacity fast tier", func(c *Config) {
			ps := c.PageSize
			*c = DefaultConfig(64*ps, 0, ps)
		}},
	}
	for _, tc := range cases {
		cfg := testConfig(0)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
}

func TestFirstTouchFillsFastFirst(t *testing.T) {
	m := NewMachine(testConfig(0))
	ps := m.PageSize()
	// Touch 20 distinct pages; first 16 must land in fast, rest in slow.
	for i := 0; i < 20; i++ {
		m.Access(uint64(int64(i)*ps), false)
	}
	if got := m.UsedPages(Fast); got != 16 {
		t.Errorf("fast used = %d, want 16", got)
	}
	if got := m.UsedPages(Slow); got != 4 {
		t.Errorf("slow used = %d, want 4", got)
	}
	for i := 0; i < 16; i++ {
		if m.TierOf(PageID(i)) != Fast {
			t.Errorf("page %d in %v, want fast", i, m.TierOf(PageID(i)))
		}
	}
	for i := 16; i < 20; i++ {
		if m.TierOf(PageID(i)) != Slow {
			t.Errorf("page %d in %v, want slow", i, m.TierOf(PageID(i)))
		}
	}
	c := m.Counters()
	if c.AllocFast != 16 || c.AllocSlow != 4 {
		t.Errorf("alloc counters = %d/%d, want 16/4", c.AllocFast, c.AllocSlow)
	}
}

func TestAccessAdvancesClockByTierCost(t *testing.T) {
	m := NewMachine(testConfig(0))
	m.Access(0, false) // first touch → fast
	fastRead := m.Now()
	if fastRead <= 0 {
		t.Fatalf("clock did not advance on fast read")
	}
	before := m.Now()
	// Fill the fast tier so the next new page lands in slow.
	for i := 1; i < 16; i++ {
		m.Access(uint64(int64(i)*m.PageSize()), false)
	}
	before = m.Now()
	m.Access(uint64(16*m.PageSize()), false) // slow read
	slowRead := m.Now() - before
	if slowRead <= fastRead {
		t.Errorf("slow read cost %dns not greater than fast read cost %dns",
			slowRead, fastRead)
	}
}

func TestWriteCostsAtLeastRead(t *testing.T) {
	cfg := testConfig(0)
	m := NewMachine(cfg)
	// Land a page in slow (fill fast first).
	for i := 0; i < 17; i++ {
		m.Access(uint64(int64(i)*m.PageSize()), false)
	}
	p := uint64(16 * m.PageSize())
	t0 := m.Now()
	m.Access(p, false)
	readCost := m.Now() - t0
	t1 := m.Now()
	m.Access(p, true)
	writeCost := m.Now() - t1
	if writeCost < readCost {
		t.Errorf("slow write cost %d < read cost %d (write BW is derated)",
			writeCost, readCost)
	}
}

func TestDRAMRatioCounters(t *testing.T) {
	m := NewMachine(testConfig(0))
	ps := uint64(m.PageSize())
	for i := 0; i < 17; i++ { // 16 fast pages + 1 slow page
		m.Access(uint64(i)*ps, false)
	}
	// 3 more accesses to a fast page, 1 more to the slow page.
	for i := 0; i < 3; i++ {
		m.Access(0, false)
	}
	m.Access(16*ps, false)
	c := m.Counters()
	if c.FastAccesses != 19 || c.SlowAccesses != 2 {
		t.Fatalf("accesses = %d fast / %d slow, want 19/2",
			c.FastAccesses, c.SlowAccesses)
	}
	want := 19.0 / 21.0
	if got := c.DRAMRatio(); got != want {
		t.Errorf("DRAMRatio = %g, want %g", got, want)
	}
}

func TestDRAMRatioEmpty(t *testing.T) {
	var c Counters
	if got := c.DRAMRatio(); got != 0 {
		t.Errorf("empty DRAMRatio = %g, want 0", got)
	}
}

func TestMovePage(t *testing.T) {
	m := NewMachine(testConfig(0))
	ps := m.PageSize()
	for i := 0; i < 17; i++ {
		m.Access(uint64(int64(i)*ps), false)
	}
	// Fast tier is full: promoting the slow page must fail.
	if err := m.MovePage(16, Fast); err != ErrTierFull {
		t.Fatalf("promote into full tier: err = %v, want ErrTierFull", err)
	}
	// Demote page 0, then promotion succeeds.
	if err := m.MovePage(0, Slow); err != nil {
		t.Fatalf("demote: %v", err)
	}
	if err := m.MovePage(16, Fast); err != nil {
		t.Fatalf("promote after demote: %v", err)
	}
	if m.TierOf(0) != Slow || m.TierOf(16) != Fast {
		t.Errorf("tiers after swap: page0=%v page16=%v", m.TierOf(0), m.TierOf(16))
	}
	c := m.Counters()
	if c.Migrations != 2 || c.Promotions != 1 || c.Demotions != 1 {
		t.Errorf("migration counters = %+v", c)
	}
	if c.MigratedBytes != 2*uint64(ps) {
		t.Errorf("MigratedBytes = %d, want %d", c.MigratedBytes, 2*ps)
	}
	// Moving to the same tier is a no-op.
	before := m.Counters().Migrations
	if err := m.MovePage(16, Fast); err != nil {
		t.Fatalf("same-tier move: %v", err)
	}
	if m.Counters().Migrations != before {
		t.Errorf("same-tier move counted as migration")
	}
	// Unallocated page cannot move.
	if err := m.MovePage(40, Fast); err != ErrNotAllocated {
		t.Errorf("move unallocated: err = %v, want ErrNotAllocated", err)
	}
}

func TestMigrationChargesInterferenceAndBackground(t *testing.T) {
	cfg := testConfig(0)
	cfg.MigrationInterference = 0.5
	m := NewMachine(cfg)
	m.Access(0, false)
	t0, bg0 := m.Now(), m.BackgroundNs()
	if err := m.MovePage(0, Slow); err != nil {
		t.Fatal(err)
	}
	appDelta := float64(m.Now() - t0)
	bgDelta := m.BackgroundNs() - bg0
	if appDelta <= 0 || bgDelta <= 0 {
		t.Fatalf("migration charged app=%g bg=%g, want both positive", appDelta, bgDelta)
	}
	// With interference 0.5 the two shares are equal (±1ns rounding).
	if diff := appDelta - bgDelta; diff > 1 || diff < -1 {
		t.Errorf("app share %g and background share %g differ beyond rounding",
			appDelta, bgDelta)
	}
}

func TestAccessedBits(t *testing.T) {
	m := NewMachine(testConfig(0))
	m.Access(0, false)
	if !m.Accessed(0) {
		t.Fatal("accessed bit not set by access")
	}
	if !m.TestAndClearAccessed(0) {
		t.Fatal("TestAndClearAccessed returned false for touched page")
	}
	if m.TestAndClearAccessed(0) {
		t.Fatal("accessed bit not cleared")
	}
	m.Access(0, false)
	if !m.Accessed(0) {
		t.Fatal("accessed bit not re-set after clear")
	}
}

func TestDirtyBit(t *testing.T) {
	m := NewMachine(testConfig(0))
	m.Access(0, false)
	if m.Dirty(0) {
		t.Fatal("read marked page dirty")
	}
	m.Access(1, true)
	p := m.PageOf(1)
	if !m.Dirty(p) {
		t.Fatal("write did not mark page dirty")
	}
}

type recordingFaultHandler struct {
	pages []PageID
}

func (r *recordingFaultHandler) OnFault(p PageID, _ TierID, _ bool, _ int64) {
	r.pages = append(r.pages, p)
}

func TestPoisonFaultsOnceUntilRearmed(t *testing.T) {
	m := NewMachine(testConfig(0))
	h := &recordingFaultHandler{}
	m.SetFaultHandler(h)
	m.Access(0, false) // allocate, unpoisoned: no fault
	m.PoisonPage(0)
	m.Access(0, false) // fault fires
	m.Access(0, false) // disarmed: no fault
	if len(h.pages) != 1 || h.pages[0] != 0 {
		t.Fatalf("faults = %v, want exactly one on page 0", h.pages)
	}
	if got := m.Counters().Faults; got != 1 {
		t.Errorf("fault counter = %d, want 1", got)
	}
	m.PoisonPage(0)
	m.Access(0, false)
	if len(h.pages) != 2 {
		t.Errorf("re-armed fault did not fire")
	}
}

func TestPoisonRangeWraps(t *testing.T) {
	m := NewMachine(testConfig(0)) // 64 pages
	next := m.PoisonRange(60, 8)   // arms 60..63, 0..3
	if next != 4 {
		t.Errorf("PoisonRange next = %d, want 4", next)
	}
	h := &recordingFaultHandler{}
	m.SetFaultHandler(h)
	m.Access(0, false)                       // page 0 is armed
	m.Access(uint64(62*m.PageSize()), false) // page 62 armed
	m.Access(uint64(10*m.PageSize()), false) // page 10 not armed
	if len(h.pages) != 2 {
		t.Fatalf("faults = %v, want pages 0 and 62", h.pages)
	}
}

type recordingSampler struct{ n int }

func (r *recordingSampler) OnMiss(PageID, TierID, bool, int64) { r.n++ }

func TestSamplerSeesOnlyMisses(t *testing.T) {
	cfg := testConfig(1 << 10)
	m := NewMachine(cfg)
	s := &recordingSampler{}
	m.SetSampler(s)
	// Access the same line repeatedly: 1 miss + N-1 cache hits.
	for i := 0; i < 100; i++ {
		m.Access(128, false)
	}
	if s.n != 1 {
		t.Errorf("sampler saw %d events, want 1 (cache hits are invisible)", s.n)
	}
	if got := m.Counters().CacheHits; got != 99 {
		t.Errorf("cache hits = %d, want 99", got)
	}
}

func TestCacheFlush(t *testing.T) {
	m := NewMachine(testConfig(1 << 10))
	m.Access(128, false)
	m.FlushCache()
	s := &recordingSampler{}
	m.SetSampler(s)
	m.Access(128, false)
	if s.n != 1 {
		t.Errorf("access after flush should miss")
	}
}

func TestPageOfWraps(t *testing.T) {
	m := NewMachine(testConfig(0)) // 64 pages
	if got := m.PageOf(uint64(m.PageSize()) * 100); got != PageID(100%64) {
		t.Errorf("PageOf out-of-range = %d, want %d", got, 100%64)
	}
}

func TestAdvanceIdle(t *testing.T) {
	m := NewMachine(testConfig(0))
	m.AdvanceIdle(1000)
	if m.Now() != 1000 {
		t.Errorf("Now = %d after AdvanceIdle(1000)", m.Now())
	}
	m.AdvanceIdle(-5) // ignored
	if m.Now() != 1000 {
		t.Errorf("negative idle advanced the clock")
	}
	// Fractional costs accumulate without being lost.
	for i := 0; i < 10; i++ {
		m.AdvanceIdle(0.25)
	}
	if m.Now() != 1002 {
		t.Errorf("Now = %d, want 1002 (fractional ns must accumulate)", m.Now())
	}
}

// Property: page residency accounting is conserved under arbitrary
// sequences of accesses and migrations.
func TestPageConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMachine(testConfig(0))
		for _, op := range ops {
			p := PageID(op % 64)
			switch (op / 64) % 3 {
			case 0:
				m.Access(uint64(int64(p)*m.PageSize()), op%2 == 0)
			case 1:
				_ = m.MovePage(p, Fast)
			case 2:
				_ = m.MovePage(p, Slow)
			}
			// Invariants after every step.
			if m.UsedPages(Fast) > m.CapacityPages(Fast) {
				return false
			}
			total := 0
			for q := 0; q < m.NumPages(); q++ {
				if m.Allocated(PageID(q)) {
					total++
				}
			}
			if total != m.UsedPages(Fast)+m.UsedPages(Slow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the clock is monotonically non-decreasing.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		m := NewMachine(testConfig(1 << 8))
		last := int64(0)
		for _, a := range addrs {
			m.Access(uint64(a), a%2 == 0)
			if m.Now() < last {
				return false
			}
			last = m.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, Counters) {
		m := NewMachine(testConfig(1 << 8))
		for i := 0; i < 10000; i++ {
			m.Access(uint64(i*977)%uint64(m.Config().FootprintBytes), i%3 == 0)
			if i%100 == 0 {
				_ = m.MovePage(m.PageOf(uint64(i)), Slow)
			}
		}
		return m.Now(), m.Counters()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Errorf("identical runs diverged: %d/%+v vs %d/%+v", t1, c1, t2, c2)
	}
}

func BenchmarkAccessHotPath(b *testing.B) {
	m := NewMachine(DefaultConfig(1<<30, 1<<29, 128<<10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Access(uint64(i*4099)&(1<<30-1), false)
	}
}

func TestMovePageSyncChargesAppFully(t *testing.T) {
	cfg := testConfig(0)
	m := NewMachine(cfg)
	m.Access(0, false)
	t0, bg0 := m.Now(), m.BackgroundNs()
	if err := m.MovePageSync(0, Slow); err != nil {
		t.Fatal(err)
	}
	if m.BackgroundNs() != bg0 {
		t.Errorf("sync move charged background time")
	}
	syncCost := m.Now() - t0
	// A background move of the same page charges only the interference
	// fraction to the app.
	t1 := m.Now()
	if err := m.MovePage(0, Fast); err != nil {
		t.Fatal(err)
	}
	asyncCost := m.Now() - t1
	if asyncCost >= syncCost {
		t.Errorf("async app cost %d not below sync cost %d", asyncCost, syncCost)
	}
	if m.BackgroundNs() == bg0 {
		t.Errorf("async move charged no background time")
	}
	// Errors propagate identically.
	if err := m.MovePageSync(40, Fast); err != ErrNotAllocated {
		t.Errorf("sync move of unallocated page: %v", err)
	}
}

// scriptedInjector is a deterministic FaultInjector for tests: it fails
// exactly the attempts whose (0-based) index is in failAt, and applies
// factor to every migration.
type scriptedInjector struct {
	failAt  map[int]bool
	factor  float64
	attempt int
}

func (s *scriptedInjector) FailMigration(now int64) bool {
	fail := s.failAt[s.attempt]
	s.attempt++
	return fail
}

func (s *scriptedInjector) BandwidthFactor(now int64) float64 {
	if s.factor > 1 {
		return s.factor
	}
	return 1
}

func TestInjectedMigrationBusy(t *testing.T) {
	m := NewMachine(testConfig(0))
	m.Access(0, false) // allocate page 0 in the fast tier
	inj := &scriptedInjector{failAt: map[int]bool{0: true}}
	m.SetFaultInjector(inj)

	if err := m.MovePage(0, Slow); err != ErrMigrationBusy {
		t.Fatalf("first attempt = %v, want ErrMigrationBusy", err)
	}
	// A failed attempt leaves state untouched.
	if m.TierOf(0) != Fast || m.UsedPages(Slow) != 0 {
		t.Error("failed migration mutated tier state")
	}
	if got := m.Counters().MigrationFailures; got != 1 {
		t.Errorf("MigrationFailures = %d, want 1", got)
	}
	if got := m.Counters().Migrations; got != 0 {
		t.Errorf("Migrations = %d after failure, want 0", got)
	}
	// The retry succeeds.
	if err := m.MovePage(0, Slow); err != nil {
		t.Fatalf("retry = %v", err)
	}
	if m.TierOf(0) != Slow {
		t.Error("retry did not move the page")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("invariants after injected fault: %v", err)
	}
}

func TestInjectedBandwidthDegradation(t *testing.T) {
	base := NewMachine(testConfig(0))
	base.Access(0, false)
	if err := base.MovePage(0, Slow); err != nil {
		t.Fatal(err)
	}
	baseTime := base.Now()

	slow := NewMachine(testConfig(0))
	slow.Access(0, false)
	slow.SetFaultInjector(&scriptedInjector{factor: 4})
	if err := slow.MovePage(0, Slow); err != nil {
		t.Fatal(err)
	}
	if slow.Now() <= baseTime {
		t.Errorf("degraded migration not slower: %d <= %d", slow.Now(), baseTime)
	}
}

func TestCheckInvariantsHolds(t *testing.T) {
	m := NewMachine(testConfig(0))
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("fresh machine: %v", err)
	}
	// Fill both tiers and shuffle pages around.
	for p := 0; p < 64; p++ {
		m.Access(uint64(p)*64*1024, p%3 == 0)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("after allocation: %v", err)
	}
	for p := 0; p < 16; p++ {
		if err := m.MovePage(PageID(p), Slow); err != nil {
			break // slow tier sized to footprint; should not fail here
		}
		m.Access(uint64(p+32)*64*1024, false)
		m.MovePage(PageID(p+32), Fast)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("after migrations: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	m := NewMachine(testConfig(0))
	for p := 0; p < 8; p++ {
		m.Access(uint64(p)*64*1024, false)
	}
	// Corrupt the used counter directly (white-box: simulates the
	// accounting drift the invariant exists to catch).
	m.used[Fast]++
	if err := m.CheckInvariants(); err == nil {
		t.Error("counter drift not detected")
	}
	m.used[Fast]--

	// A page recorded in two tiers at once is impossible with a single
	// tier array; the equivalent corruption is a tier/counter mismatch.
	m.tier[0] = Slow
	if err := m.CheckInvariants(); err == nil {
		t.Error("tier map / counter mismatch not detected")
	}
	m.tier[0] = Fast

	// Over-capacity detection.
	savedCap := m.cap[Fast]
	m.cap[Fast] = 2
	if err := m.CheckInvariants(); err == nil {
		t.Error("over-capacity tier not detected")
	}
	m.cap[Fast] = savedCap

	if err := m.CheckInvariants(); err != nil {
		t.Errorf("restored machine still failing: %v", err)
	}
}

func TestMachinePageTrace(t *testing.T) {
	m := NewMachine(testConfig(0))
	pt := telemetry.NewPageTrace(64, 1)
	m.SetPageTrace(pt)

	m.Access(0, false) // first touch: alloc event, fast tier
	p := m.PageOf(0)
	if err := m.MovePage(p, Slow); err != nil {
		t.Fatal(err)
	}
	if err := m.MovePage(p, Fast); err != nil {
		t.Fatal(err)
	}
	ev := pt.PageEvents(uint64(p))
	if len(ev) != 3 {
		t.Fatalf("traced %d events, want 3 (alloc + 2 migrations): %+v", len(ev), ev)
	}
	if ev[0].Kind != telemetry.PageKindAlloc || ev[0].Tier != "fast" {
		t.Errorf("alloc event = %+v", ev[0])
	}
	if ev[1].Kind != telemetry.PageKindMigration || ev[1].From != "fast" ||
		ev[1].To != "slow" || ev[1].Outcome != telemetry.OutcomeSettled {
		t.Errorf("demotion event = %+v", ev[1])
	}
	if ev[2].From != "slow" || ev[2].To != "fast" || ev[2].Outcome != telemetry.OutcomeSettled {
		t.Errorf("promotion event = %+v", ev[2])
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TimeNs < ev[i-1].TimeNs || ev[i].Seq <= ev[i-1].Seq {
			t.Errorf("events out of order: %+v then %+v", ev[i-1], ev[i])
		}
	}
}

func TestMachinePageTraceTierFull(t *testing.T) {
	cfg := testConfig(0)
	m := NewMachine(cfg)
	pt := telemetry.NewPageTrace(256, 1)
	m.SetPageTrace(pt)
	// Fill the fast tier, then allocate one page in slow and try to
	// promote it: the attempt must journal a tier_full outcome.
	for i := 0; i <= m.CapacityPages(Fast); i++ {
		m.Access(uint64(i)*uint64(cfg.PageSize), false)
	}
	var slow PageID = NoPage
	for p := 0; p < m.NumPages(); p++ {
		if m.Allocated(PageID(p)) && m.TierOf(PageID(p)) == Slow {
			slow = PageID(p)
			break
		}
	}
	if slow == NoPage {
		t.Fatal("no slow-tier page allocated")
	}
	if err := m.MovePage(slow, Fast); err != ErrTierFull {
		t.Fatalf("MovePage = %v, want ErrTierFull", err)
	}
	var found bool
	for _, e := range pt.PageEvents(uint64(slow)) {
		if e.Kind == telemetry.PageKindMigration && e.Outcome == telemetry.OutcomeTierFull {
			found = true
		}
	}
	if !found {
		t.Error("no tier_full migration event journaled")
	}
}
