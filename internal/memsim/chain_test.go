package memsim

import (
	"errors"
	"reflect"
	"testing"

	"artmem/internal/tier"
)

// chainCfg builds a chain-machine config with the given spec and
// footprint/page geometry.
func chainCfg(t *testing.T, spec string, footprint, pageSize int64) Config {
	t.Helper()
	c, err := tier.ParseChain(spec)
	if err != nil {
		t.Fatalf("ParseChain(%q): %v", spec, err)
	}
	cfg := DefaultConfig(footprint, 0, pageSize)
	cfg.Chain = c
	return cfg
}

// TestChainTwoTierByteIdentical pins the tentpole compatibility
// contract: a two-tier chain carrying the seed machine's Table 2
// numbers produces byte-identical virtual time, counters, and latency
// distribution to the legacy Fast/Slow machine — the same way
// ShardedMachine N=1 is pinned against Machine.
func TestChainTwoTierByteIdentical(t *testing.T) {
	const (
		pageSize  = 4096
		footprint = 512 * pageSize
		fastBytes = 128 * pageSize
	)
	legacy := NewMachine(DefaultConfig(footprint, fastBytes, pageSize))

	ccfg := DefaultConfig(footprint, fastBytes, pageSize)
	ccfg.Chain = tier.Chain{
		{Name: "DRAM", LatencyNs: FastLatencyNs, ReadBWGBs: FastBWGBs,
			WriteBWGBs: FastBWGBs, CapacityPages: 128},
		{Name: "PM", LatencyNs: SlowLatencyNs, ReadBWGBs: SlowBWGBs,
			WriteBWGBs: SlowBWGBs / 3},
	}
	chain := NewMachine(ccfg)
	if chain.Tiers() != 2 || chain.TierName(0) != "DRAM" {
		t.Fatalf("chain machine shape: %d tiers, tier0 %q", chain.Tiers(), chain.TierName(0))
	}

	// The "DRAM:25%/PM" parse-level spec must also reproduce the same
	// cost model (the preset carries the derated write figure).
	pcfg := chainCfg(t, "DRAM:cap=128/PM", footprint, pageSize)
	parsed := NewMachine(pcfg)

	rng := uint64(42)
	step := func(m *Machine) {
		r := rng
		for i := 0; i < 20000; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			addr := (r >> 11) % footprint
			m.Access(addr, r&7 == 0)
			if i%512 == 100 {
				m.AdvanceIdle(50)
			}
			if i%997 == 0 {
				p := m.PageOf(addr)
				if m.TierOf(p) == Slow {
					_ = m.MovePage(p, Fast)
				} else if i%1994 == 0 {
					_ = m.MovePage(p, Slow)
				}
			}
		}
	}
	step(legacy)
	step(chain)
	step(parsed)

	for name, m := range map[string]*Machine{"chain": chain, "parsed-chain": parsed} {
		if got, want := m.Counters(), legacy.Counters(); got != want {
			t.Errorf("%s counters diverge:\n got %+v\nwant %+v", name, got, want)
		}
		if got, want := m.Now(), legacy.Now(); got != want {
			t.Errorf("%s clock %d != legacy %d", name, got, want)
		}
		if got, want := m.BackgroundNs(), legacy.BackgroundNs(); got != want {
			t.Errorf("%s background %g != legacy %g", name, got, want)
		}
		if got, want := m.AccessLatencyData(), legacy.AccessLatencyData(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s latency data diverge:\n got %+v\nwant %+v", name, got, want)
		}
		for tr := TierID(0); tr < 2; tr++ {
			if m.UsedPages(tr) != legacy.UsedPages(tr) {
				t.Errorf("%s tier %d used %d != legacy %d", name, tr, m.UsedPages(tr), legacy.UsedPages(tr))
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%s invariants: %v", name, err)
		}
	}
}

func TestChainThreeTierAllocationAndBoundaries(t *testing.T) {
	const pageSize = 4096
	cfg := chainCfg(t, "DRAM:cap=4/CXL:cap=4/PM:cap=4", 12*pageSize, pageSize)
	m := NewMachine(cfg)
	if m.Tiers() != 3 || m.NumBoundaries() != 2 {
		t.Fatalf("shape: %d tiers, %d boundaries", m.Tiers(), m.NumBoundaries())
	}
	// First touch fills tiers in chain order.
	for p := 0; p < 12; p++ {
		m.Access(uint64(p)*pageSize, false)
	}
	for tr, want := range []int{4, 4, 4} {
		if got := m.UsedPages(TierID(tr)); got != want {
			t.Fatalf("tier %d used %d, want %d", tr, got, want)
		}
	}
	c := m.Counters()
	if c.AllocFast != 4 || c.AllocSlow != 8 {
		t.Fatalf("alloc split %d/%d, want 4/8", c.AllocFast, c.AllocSlow)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Migrations attribute to the destination-side boundary.
	p8 := m.PageOf(8 * pageSize) // resident in PM (tier 2)
	if m.TierOf(p8) != 2 {
		t.Fatalf("page 8 in tier %d, want 2", m.TierOf(p8))
	}
	// PM→CXL needs a CXL frame: demote a CXL page down first.
	p4 := m.PageOf(4 * pageSize)
	if err := m.MovePage(p4, 2); err == nil {
		t.Fatal("PM is full; demotion should fail")
	} else if !errors.Is(err, ErrTierFull) {
		t.Fatalf("want ErrTierFull, got %v", err)
	}
	// Promote a PM page straight to DRAM? DRAM is full too.
	if err := m.MovePage(p8, 0); !errors.Is(err, ErrTierFull) {
		t.Fatalf("want ErrTierFull, got %v", err)
	}
	// Make room: DRAM→CXL would also hit a full CXL, so free a page.
	if err := m.FreePage(p4); err != nil {
		t.Fatal(err)
	}
	if err := m.MovePage(p8, 1); err != nil { // PM→CXL: promotion over boundary 1
		t.Fatal(err)
	}
	p0 := m.PageOf(0)
	if err := m.MovePage(p0, 1); err == nil {
		t.Fatal("CXL refilled; DRAM→CXL should fail")
	}
	if err := m.FreePage(m.PageOf(5 * pageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.MovePage(p0, 1); err != nil { // DRAM→CXL: demotion over boundary 0
		t.Fatal(err)
	}
	if err := m.MovePage(m.PageOf(9*pageSize), 0); err != nil { // PM→DRAM: skip-level promotion, boundary 0
		t.Fatal(err)
	}
	b0, b1 := m.BoundaryStatsAt(0), m.BoundaryStatsAt(1)
	if b0.Promotions != 1 || b0.Demotions != 1 {
		t.Fatalf("boundary 0 stats %+v, want 1 promotion, 1 demotion", b0)
	}
	if b1.Promotions != 1 || b1.Demotions != 0 {
		t.Fatalf("boundary 1 stats %+v, want 1 promotion", b1)
	}
	c = m.Counters()
	if c.Promotions != 2 || c.Demotions != 1 {
		t.Fatalf("promotions/demotions %d/%d, want 2/1", c.Promotions, c.Demotions)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChainMigrationCostModel checks that per-pair migration costs use
// the bottleneck bandwidth of the (source read, destination write)
// pair, per the seed cost model.
func TestChainMigrationCostModel(t *testing.T) {
	const pageSize = 1 << 20
	cfg := chainCfg(t, "DRAM:cap=4/CXL:cap=4,lat=180,bw=45/PM", 12*pageSize, pageSize)
	cfg.MigrationInterference = 1 // charge everything to app time for easy reading
	cfg.CacheLines = 0
	m := NewMachine(cfg)
	for p := 0; p < 12; p++ {
		m.Access(uint64(p)*pageSize, false)
	}
	if err := m.FreePage(m.PageOf(4 * pageSize)); err != nil { // open a CXL frame
		t.Fatal(err)
	}
	before := m.Now()
	if err := m.MovePageSync(m.PageOf(8*pageSize), 1); err != nil { // PM→CXL
		t.Fatal(err)
	}
	elapsed := float64(m.Now() - before)
	// Bottleneck of PM read (26 GB/s) vs CXL write (45 GB/s) is 26.
	want := float64(pageSize)/26 + cfg.MigrationFixedNs
	if diff := elapsed - want; diff < -1 || diff > 1 {
		t.Fatalf("PM→CXL cost %g ns, want ~%g", elapsed, want)
	}
}

func shadowCfg(t *testing.T, spec string, pages int) Config {
	t.Helper()
	cfg := chainCfg(t, spec, int64(pages)*4096, 4096)
	cfg.NonExclusive = true
	cfg.CacheLines = 0 // make every access visible
	return cfg
}

func TestShadowPromoteDiscardCycle(t *testing.T) {
	// DRAM cap 2, PM cap 3, 4 pages: 0,1 land in DRAM; 2,3 in PM.
	m := NewMachine(shadowCfg(t, "DRAM:cap=2/PM:cap=3", 4))
	for p := 0; p < 4; p++ {
		m.Access(uint64(p)*4096, false)
	}
	p0, p2 := m.PageOf(0), m.PageOf(2*4096)
	if err := m.MovePage(p0, Slow); err != nil { // make a DRAM frame free
		t.Fatal(err)
	}
	base := m.Counters()
	if err := m.MovePage(p2, Fast); err != nil { // promotion leaves a shadow
		t.Fatal(err)
	}
	if got := m.ShadowPages(Slow); got != 1 {
		t.Fatalf("shadow pages %d, want 1", got)
	}
	if st, ok := m.ShadowOf(p2); !ok || st != Slow {
		t.Fatalf("ShadowOf(p2) = %d,%v", st, ok)
	}
	if used := m.UsedPages(Slow); used != 3 { // residents 0,3 + shadow 2
		t.Fatalf("slow used %d, want 3", used)
	}
	if m.ResidentPages(Slow) != 2 {
		t.Fatalf("slow residents %d, want 2", m.ResidentPages(Slow))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	afterPromo := m.Counters()
	if afterPromo.MigratedBytes != base.MigratedBytes+4096 {
		t.Fatalf("promotion should transfer one page")
	}

	// Demotion onto the clean shadow is a free discard: no bytes, no
	// virtual time.
	clock := m.Now()
	if err := m.MovePage(p2, Slow); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.ShadowDiscards != 1 {
		t.Fatalf("ShadowDiscards %d, want 1", c.ShadowDiscards)
	}
	if c.MigratedBytes != afterPromo.MigratedBytes {
		t.Fatalf("discard transferred bytes: %d -> %d", afterPromo.MigratedBytes, c.MigratedBytes)
	}
	if c.Demotions != afterPromo.Demotions+1 || c.Migrations != afterPromo.Migrations+1 {
		t.Fatalf("discard should count as a demotion migration: %+v", c)
	}
	if m.Now() != clock {
		t.Fatalf("discard advanced the clock by %d ns", m.Now()-clock)
	}
	if m.ShadowPages(Slow) != 0 || m.UsedPages(Slow) != 3 {
		t.Fatalf("post-discard slow state: %d shadows, %d used", m.ShadowPages(Slow), m.UsedPages(Slow))
	}
	if bs := m.BoundaryStatsAt(0); bs.ShadowDiscards != 1 {
		t.Fatalf("boundary stats %+v, want 1 discard", bs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShadowInvalidateOnWrite(t *testing.T) {
	m := NewMachine(shadowCfg(t, "DRAM:cap=2/PM:cap=3", 4))
	for p := 0; p < 4; p++ {
		m.Access(uint64(p)*4096, false)
	}
	p2 := m.PageOf(2 * 4096)
	if err := m.MovePage(m.PageOf(0), Slow); err != nil {
		t.Fatal(err)
	}
	if err := m.MovePage(p2, Fast); err != nil {
		t.Fatal(err)
	}
	if m.ShadowPages(Slow) != 1 {
		t.Fatal("promotion should leave a shadow")
	}
	m.Access(2*4096, true) // write invalidates
	c := m.Counters()
	if c.ShadowInvalidates != 1 || m.ShadowPages(Slow) != 0 {
		t.Fatalf("invalidate: %d invalidates, %d shadows", c.ShadowInvalidates, m.ShadowPages(Slow))
	}
	if m.UsedPages(Slow) != 2 { // the shadow frame freed
		t.Fatalf("slow used %d, want 2", m.UsedPages(Slow))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The demotion now needs a real transfer again.
	before := m.Counters().MigratedBytes
	if err := m.MovePage(p2, Slow); err != nil {
		t.Fatal(err)
	}
	if got := m.Counters().MigratedBytes; got != before+4096 {
		t.Fatalf("post-invalidate demotion should transfer: %d -> %d", before, got)
	}
}

func TestShadowReclaimUnderPressure(t *testing.T) {
	// DRAM 2 / PM 3, 5 pages, but only touch 4 up front.
	m := NewMachine(shadowCfg(t, "DRAM:cap=2/PM:cap=3", 5))
	for p := 0; p < 4; p++ {
		m.Access(uint64(p)*4096, false)
	}
	p1, p2 := m.PageOf(1*4096), m.PageOf(2*4096)
	if err := m.MovePage(p1, Slow); err != nil { // PM: 1,2,3 (3/3)
		t.Fatal(err)
	}
	if err := m.MovePage(p2, Fast); err != nil { // shadow keeps PM at 3/3
		t.Fatal(err)
	}
	if m.ShadowPages(Slow) != 1 || m.UsedPages(Slow) != 3 {
		t.Fatalf("setup: %d shadows, %d used", m.ShadowPages(Slow), m.UsedPages(Slow))
	}
	// First-touch of page 4: DRAM is full, PM is full but one frame is
	// a reclaimable shadow — the allocation evicts it instead of
	// overflowing.
	m.Access(4*4096, false)
	c := m.Counters()
	if c.ShadowReclaims != 1 {
		t.Fatalf("ShadowReclaims %d, want 1", c.ShadowReclaims)
	}
	if m.ShadowPages(Slow) != 0 || m.UsedPages(Slow) != 3 {
		t.Fatalf("post-alloc: %d shadows, %d used", m.ShadowPages(Slow), m.UsedPages(Slow))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// With the shadow reclaimed PM is genuinely full: both a promotion
	// into full DRAM and a demotion into full PM must fail.
	if err := m.MovePage(m.PageOf(4*4096), Fast); err == nil {
		t.Fatal("DRAM is full; promotion should fail")
	}
	if err := m.MovePage(p2, Slow); !errors.Is(err, ErrTierFull) {
		t.Fatalf("demotion into full PM: %v, want ErrTierFull", err)
	}
	if err := m.FreePage(p1); err != nil {
		t.Fatal(err)
	}
	if err := m.MovePage(p2, Slow); err != nil { // full transfer (shadow gone)
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShadowFreePageDropsShadow(t *testing.T) {
	m := NewMachine(shadowCfg(t, "DRAM:cap=2/PM:cap=3", 4))
	for p := 0; p < 4; p++ {
		m.Access(uint64(p)*4096, false)
	}
	p2 := m.PageOf(2 * 4096)
	if err := m.MovePage(m.PageOf(0), Slow); err != nil {
		t.Fatal(err)
	}
	if err := m.MovePage(p2, Fast); err != nil {
		t.Fatal(err)
	}
	if err := m.FreePage(p2); err != nil {
		t.Fatal(err)
	}
	if m.ShadowPages(Slow) != 0 {
		t.Fatal("FreePage left the shadow frame behind")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShadowDeepChain exercises multi-level shadows: promoting twice
// keeps at most one shadow (the older, deeper one frees), and demoting
// below a live shadow invalidates it.
func TestShadowDeepChain(t *testing.T) {
	m := NewMachine(shadowCfg(t, "DRAM:cap=2/CXL:cap=2,lat=180,bw=45/PM:cap=4", 6))
	for p := 0; p < 6; p++ {
		m.Access(uint64(p)*4096, false)
	}
	// Layout: DRAM {0,1}, CXL {2,3}, PM {4,5}.
	p4 := m.PageOf(4 * 4096)
	if err := m.MovePage(m.PageOf(2*4096), 2); err != nil { // CXL→PM frees a CXL frame (PM 3/4)
		t.Fatal(err)
	}
	if err := m.MovePage(p4, 1); err != nil { // PM→CXL, shadow in PM
		t.Fatal(err)
	}
	if m.ShadowPages(2) != 1 {
		t.Fatal("want shadow in PM")
	}
	if err := m.MovePage(m.PageOf(0), 1); err != nil { // DRAM→CXL? CXL is full (2/2)
		// CXL full: expected; free a DRAM frame differently.
		if !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
		if err := m.MovePage(m.PageOf(0), 2); err != nil { // DRAM→PM直接 (PM 4/4 incl shadow → reclaims)
			t.Fatal(err)
		}
	}
	// Promote p4 again, CXL→DRAM: the PM shadow (if it survived) must
	// be dropped and replaced by a CXL shadow.
	if err := m.MovePage(p4, 0); err != nil {
		t.Fatal(err)
	}
	if st, ok := m.ShadowOf(p4); !ok || st != 1 {
		t.Fatalf("ShadowOf(p4) = %d,%v; want CXL shadow", st, ok)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Demote p4 all the way to PM, past its CXL shadow: the shadow
	// would sit above the resident copy, so it must be invalidated.
	if err := m.MovePage(p4, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.ShadowOf(p4); ok {
		t.Fatal("stale shadow above the resident survived a deep demotion")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChainInvariantViolationsDetected(t *testing.T) {
	m := NewMachine(shadowCfg(t, "DRAM:cap=2/PM:cap=3", 4))
	for p := 0; p < 4; p++ {
		m.Access(uint64(p)*4096, false)
	}
	if err := m.MovePage(m.PageOf(0), Slow); err != nil {
		t.Fatal(err)
	}
	p2 := m.PageOf(2 * 4096)
	if err := m.MovePage(p2, Fast); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the used counter.
	m.used[0]++
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("used-counter drift not detected")
	}
	m.used[0]--
	// Break the shadow-below-resident invariant by teleporting the
	// resident copy under its own shadow.
	m.used[m.tier[p2]]--
	m.tier[p2] = Slow
	m.used[Slow]++
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("shadow-above-resident not detected")
	}
}

// TestChainShardedShadowMigration extends the sharded property test to
// the chain machine: access batches on a 3-tier non-exclusive sharded
// machine (writes invalidate shadows) interleave with cross-tier
// migrations through the facade, and CheckInvariants — which recounts
// shadow frames per tier — must hold after every round.
func TestChainShardedShadowMigration(t *testing.T) {
	const pageSize = 4096
	cfg := chainCfg(t, "DRAM:cap=96/CXL:cap=96,lat=180,bw=45/PM", 512*pageSize, pageSize)
	cfg.NonExclusive = true
	const (
		shards  = 4
		writers = 4
		rounds  = 30
	)
	sm := NewShardedMachine(cfg, shards)
	addrs := make([][]uint64, writers)
	writes := make([][]bool, writers)
	for w := range addrs {
		addrs[w], writes[w] = stream(uint64(w)+900, 2000, uint64(cfg.FootprintBytes))
	}

	check := func(round int) {
		if err := sm.CheckInvariants(); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
		for tr := TierID(0); int(tr) < sm.Tiers(); tr++ {
			if sm.ResidentPages(tr) < 0 {
				t.Errorf("round %d: tier %d negative residents", round, tr)
			}
		}
	}

	r := lcg(7)
	for round := 0; round < rounds; round++ {
		for w := range addrs {
			for i, a := range addrs[w] {
				sm.Access(a, writes[w][i])
			}
		}
		for i := 0; i < 20; i++ {
			v := r.next()
			p := PageID(v % uint64(sm.NumPages()))
			cur := sm.TierOf(p)
			if v&1 == 0 && cur > 0 {
				sm.MovePage(p, cur-1)
			} else if int(cur) < sm.Tiers()-1 {
				sm.MovePage(p, cur+1)
			}
		}
		check(round)
	}
}

func TestChainSharded(t *testing.T) {
	const pageSize = 4096
	cfg := chainCfg(t, "DRAM:cap=64/CXL:cap=64,lat=180,bw=45/PM", 512*pageSize, pageSize)
	cfg.NonExclusive = true
	sm := NewShardedMachine(cfg, 4)
	if sm.Tiers() != 3 || sm.TierName(1) != "CXL" {
		t.Fatalf("sharded chain shape: %d tiers", sm.Tiers())
	}
	if got := sm.CapacityPages(0); got != 64 {
		t.Fatalf("sharded DRAM capacity %d, want 64", got)
	}
	rng := uint64(7)
	for i := 0; i < 30000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		sm.Access((rng>>11)%(512*pageSize), rng&7 == 0)
	}
	// Promote and demote across shards through the Env surface.
	for p := PageID(0); p < 256; p += 3 {
		if sm.TierOf(p) > 0 {
			_ = sm.MovePage(p, sm.TierOf(p)-1)
		}
	}
	for p := PageID(1); p < 256; p += 5 {
		if int(sm.TierOf(p)) < sm.Tiers()-1 {
			_ = sm.MovePage(p, sm.TierOf(p)+1)
		}
	}
	if err := sm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var acc uint64
	for tr := TierID(0); int(tr) < sm.Tiers(); tr++ {
		acc += sm.TierAccesses(tr)
	}
	c := sm.Counters()
	if acc != c.FastAccesses+c.SlowAccesses {
		t.Fatalf("per-tier accesses %d != counter total %d", acc, c.FastAccesses+c.SlowAccesses)
	}
}
