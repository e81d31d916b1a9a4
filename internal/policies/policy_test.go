package policies

import (
	"testing"

	"artmem/internal/lru"
	"artmem/internal/memsim"
)

// testMachine builds a 64-page machine (64KiB pages) with fastPages of
// fast-tier capacity and no CPU cache.
func testMachine(fastPages int) *memsim.Machine {
	cfg := memsim.DefaultConfig(64*64*1024, int64(fastPages)*64*1024, 64*1024)
	cfg.CacheLines = 0
	return memsim.NewMachine(cfg)
}

// fillHotCold first-touches pages 0..15 (cold, land in fast) then 16..31
// (hot, land in slow), and returns an access function that re-touches the
// hot set.
func fillHotCold(m *memsim.Machine) func(rounds int) {
	ps := uint64(m.PageSize())
	for p := uint64(0); p < 32; p++ {
		m.Access(p*ps, false)
	}
	return func(rounds int) {
		for r := 0; r < rounds; r++ {
			for p := uint64(16); p < 32; p++ {
				m.Access(p*ps, false)
			}
		}
	}
}

// drive runs the policy for n ticks, touching the hot set between ticks.
func drive(m *memsim.Machine, pol Policy, touch func(int), ticks int) {
	for i := 0; i < ticks; i++ {
		touch(20)
		pol.Tick(int64(i+1) * pol.Interval())
	}
}

func TestBaselinesRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, f := range Baselines() {
		if names[f.Name] {
			t.Errorf("duplicate baseline %q", f.Name)
		}
		names[f.Name] = true
		pol := f.New()
		if pol.Name() != f.Name {
			t.Errorf("factory %q builds policy named %q", f.Name, pol.Name())
		}
		if pol.Interval() <= 0 {
			// Interval may be resolved at Attach; attach and re-check.
			pol.Attach(testMachine(16))
			if pol.Interval() <= 0 {
				t.Errorf("%s: non-positive interval", f.Name)
			}
		}
	}
	for _, want := range []string{"Static", "MEMTIS", "AutoTiering", "TPP",
		"AutoNUMA", "Multi-clock", "Nimble", "Tiering-0.8"} {
		if !names[want] {
			t.Errorf("baseline %q missing", want)
		}
	}
	if _, err := ByName("MEMTIS"); err != nil {
		t.Errorf("ByName(MEMTIS): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestStaticNeverMigrates(t *testing.T) {
	m := testMachine(16)
	pol := NewStatic()
	pol.Attach(m)
	touch := fillHotCold(m)
	drive(m, pol, touch, 20)
	if got := m.Counters().Migrations; got != 0 {
		t.Errorf("static migrated %d pages", got)
	}
}

// Every adaptive baseline must eventually move a persistently hot
// slow-tier working set into the fast tier.
func TestAllBaselinesPromoteHotSet(t *testing.T) {
	for _, f := range Baselines() {
		if f.Name == "Static" {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			m := testMachine(16)
			pol := f.New()
			pol.Attach(m)
			touch := fillHotCold(m)
			drive(m, pol, touch, 60)
			inFast := 0
			for p := memsim.PageID(16); p < 32; p++ {
				if m.TierOf(p) == memsim.Fast {
					inFast++
				}
			}
			if inFast < 8 {
				t.Errorf("%s: only %d of 16 hot pages in fast tier after 60 ticks",
					f.Name, inFast)
			}
			if m.Counters().Promotions == 0 {
				t.Errorf("%s: no promotions recorded", f.Name)
			}
		})
	}
}

func TestDemoteForHeadroomSkipsActivePages(t *testing.T) {
	m := testMachine(16)
	b := &base{}
	b.attach(m)
	fillHotCold(m)
	// All fast pages are on the active list (first touch): demotion must
	// refuse to evict them.
	if freed := b.demoteForHeadroom(4, 10); freed != 0 {
		t.Errorf("demoted %d active pages", freed)
	}
	// Move two pages to the inactive list: now exactly those are fair game.
	b.lists.PushHead(lru.FastInactive, 0)
	b.lists.PushHead(lru.FastInactive, 1)
	if freed := b.demoteForHeadroom(4, 10); freed != 2 {
		t.Errorf("freed %d, want 2", freed)
	}
	if m.TierOf(0) != memsim.Slow || m.TierOf(1) != memsim.Slow {
		t.Errorf("victims not demoted")
	}
	// Conservative status transfer: demoted pages stay inactive.
	if b.lists.ListOf(0) != lru.SlowInactive {
		t.Errorf("demoted page on %v, want slow-inactive", b.lists.ListOf(0))
	}
}

func TestPromotePreservesStatus(t *testing.T) {
	m := testMachine(16)
	b := &base{}
	b.attach(m)
	fillHotCold(m)
	// Demote page 0 so there is room, then promote a slow-active and a
	// slow-inactive page.
	b.lists.PushHead(lru.FastInactive, 0)
	b.demoteForHeadroom(1, 1)
	active := memsim.PageID(16)
	b.lists.PushHead(lru.SlowActive, active)
	if !b.promote(active) {
		t.Fatal("promote failed with free space")
	}
	if b.lists.ListOf(active) != lru.FastActive {
		t.Errorf("active page promoted to %v", b.lists.ListOf(active))
	}
	// Full tier: promote fails.
	if b.promote(17) {
		t.Error("promote succeeded into a full tier")
	}
	// Promoting a fast page is a no-op success.
	if !b.promote(active) {
		t.Error("same-tier promote reported failure")
	}
}

func TestMEMTISThresholdOverride(t *testing.T) {
	m := testMachine(16)
	mt := NewMEMTIS(MEMTISConfig{ThresholdOverride: 42})
	mt.Attach(m)
	if got := mt.Threshold(); got != 42 {
		t.Errorf("Threshold = %d, want override 42", got)
	}
	mt2 := NewMEMTIS(MEMTISConfig{})
	mt2.Attach(testMachine(16))
	if got := mt2.Threshold(); got == 42 {
		t.Errorf("default threshold suspiciously equals the override")
	}
}

func TestMEMTISOverMigratesWhenEverythingFits(t *testing.T) {
	// Pattern-S1 behaviour: DRAM large enough for all sampled pages →
	// the capacity threshold admits everything, so MEMTIS promotes every
	// sampled slow page.
	m := testMachine(48) // fast tier holds 48 of 64 pages
	mt := NewMEMTIS(MEMTISConfig{SamplePeriod: 1})
	mt.Attach(m)
	ps := uint64(m.PageSize())
	// Touch all 64 pages: 48 fast, 16 slow, then access the slow ones a
	// couple of times.
	for p := uint64(0); p < 64; p++ {
		m.Access(p*ps, false)
	}
	for r := 0; r < 3; r++ {
		for p := uint64(48); p < 64; p++ {
			m.Access(p*ps, false)
		}
	}
	mt.Tick(1)
	if got := m.Counters().Promotions; got < 10 {
		t.Errorf("MEMTIS promoted only %d pages; capacity threshold should admit all", got)
	}
}

func TestMultiClockRequiresDoubleConfirmation(t *testing.T) {
	m := testMachine(16)
	mc := NewMultiClock(ScanConfig{})
	mc.Attach(m)
	touch := fillHotCold(m)
	// Make room so promotion is unconstrained.
	mc.lists.PushHead(lru.FastInactive, 0)
	mc.demoteForHeadroom(1, 1)
	// One referenced scan: pages become candidates, no promotion yet.
	touch(1)
	mc.Tick(1)
	if got := m.Counters().Promotions; got != 0 {
		t.Fatalf("promoted %d pages after a single confirmation", got)
	}
	// Second referenced scan: now they promote.
	touch(1)
	mc.Tick(2)
	if got := m.Counters().Promotions; got == 0 {
		t.Error("no promotion after double confirmation")
	}
}

func TestNimbleBatchCadence(t *testing.T) {
	m := testMachine(16)
	n := NewNimble(ScanConfig{BatchTicks: 4})
	n.Attach(m)
	touch := fillHotCold(m)
	// Ticks 1..3: history builds, no batch yet.
	for i := 1; i <= 3; i++ {
		touch(5)
		n.Tick(int64(i))
	}
	if got := m.Counters().Migrations; got != 0 {
		t.Fatalf("Nimble migrated %d pages before its batch tick", got)
	}
	// Tick 4 completes the batch window; with 4 scans of history the hot
	// pages qualify (h ≥ 4) and exchange with cold fast pages.
	touch(5)
	n.Tick(4)
	if got := m.Counters().Promotions; got == 0 {
		t.Error("Nimble batch did not promote")
	}
}

func TestAutoTieringExchangesOnFault(t *testing.T) {
	m := testMachine(16)
	at := NewAutoTiering(FaultConfig{})
	at.Attach(m)
	touch := fillHotCold(m)
	// Age the cold fast pages onto the inactive list so exchange victims
	// exist, then arm the hot pages and touch them.
	at.Tick(1)
	at.Tick(2)
	for p := memsim.PageID(16); p < 32; p++ {
		m.PoisonPage(p)
	}
	touch(1)
	if got := m.Counters().Promotions; got == 0 {
		t.Error("no opportunistic promotion on fault")
	}
	if got := m.Counters().Demotions; got == 0 {
		t.Error("no exchange demotion (fast tier was full)")
	}
}

func TestTiering08ResetsOnWorkloadChange(t *testing.T) {
	m := testMachine(16)
	tr := NewTiering08(FaultConfig{})
	tr.Attach(m)
	fillHotCold(m)
	// Phase 1: all faults on fast pages.
	for p := memsim.PageID(0); p < 8; p++ {
		m.PoisonPage(p)
	}
	for p := uint64(0); p < 8; p++ {
		m.Access(p*uint64(m.PageSize()), false)
	}
	tr.Tick(1)
	// Phase 2: faults shift to the slow tier → slow share jumps → reset.
	for p := memsim.PageID(16); p < 32; p++ {
		m.PoisonPage(p)
	}
	for p := uint64(16); p < 32; p++ {
		m.Access(p*uint64(m.PageSize()), false)
	}
	tr.Tick(2)
	if tr.resets == 0 {
		t.Error("workload change did not trigger a threshold reset")
	}
}

func TestFaultPoliciesChargeFaultCost(t *testing.T) {
	m := testMachine(16)
	an := NewAutoNUMA(FaultConfig{})
	an.Attach(m)
	fillHotCold(m)
	an.Tick(1) // poisons a window
	t0 := m.Now()
	// Touch everything: armed pages take hint faults, which cost time.
	for p := uint64(0); p < 32; p++ {
		m.Access(p*uint64(m.PageSize()), false)
	}
	if m.Counters().Faults == 0 {
		t.Fatal("no faults fired after poisoning")
	}
	if m.Now() == t0 {
		t.Error("faults did not advance time")
	}
}

func TestHottestPagesRanksByScore(t *testing.T) {
	m := testMachine(16)
	b := &base{}
	b.attach(m)
	fillHotCold(m)
	score := func(p memsim.PageID) uint32 { return uint32(p) }
	got := b.hottestPages(4, 20, score)
	if len(got) != 4 {
		t.Fatalf("got %d pages", len(got))
	}
	// Highest PageIDs (in slow tier, ≥ min 20) first.
	want := []memsim.PageID{31, 30, 29, 28}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Min filter.
	if got := b.hottestPages(10, 30, score); len(got) != 2 {
		t.Errorf("min filter kept %d pages, want 2", len(got))
	}
}

func TestPoliciesChargeBackgroundCPU(t *testing.T) {
	for _, f := range Baselines() {
		if f.Name == "Static" {
			continue
		}
		m := testMachine(16)
		pol := f.New()
		pol.Attach(m)
		touch := fillHotCold(m)
		drive(m, pol, touch, 5)
		if m.BackgroundNs() <= 0 {
			t.Errorf("%s: no background CPU charged", f.Name)
		}
	}
}
