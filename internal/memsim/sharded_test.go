package memsim

import (
	"errors"
	"fmt"
	"testing"
)

// testShardCfg builds a small machine config: 256 pages, half of them
// fast-tier, a small cache so the cache model participates.
func testShardCfg() Config {
	cfg := DefaultConfig(1<<20, 1<<19, 4096)
	cfg.CacheLines = 1024
	return cfg
}

// lcg is the deterministic address stream all sharding tests replay.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// stream generates n (addr, write) pairs over a footprint with a
// skewed hot set: half the stream hits the low quarter of the space.
func stream(seed uint64, n int, footprint uint64) ([]uint64, []bool) {
	r := lcg(seed)
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		v := r.next()
		if v&1 == 0 {
			addrs[i] = (v >> 1) % (footprint / 4)
		} else {
			addrs[i] = (v >> 1) % footprint
		}
		writes[i] = v&7 == 0
	}
	return addrs, writes
}

// TestShardedOneShardByteIdentical is the N=1 compatibility criterion:
// a one-shard machine replaying the same access and migration stream
// as a bare Machine must land on identical counters, clock, and
// background time — the guarantee that keeps every deterministic
// experiment and the benchdiff baseline stable with sharding off.
func TestShardedOneShardByteIdentical(t *testing.T) {
	cfg := testShardCfg()
	m := NewMachine(cfg)
	sm := NewShardedMachine(cfg, 1)

	addrs, writes := stream(1, 200_000, uint64(cfg.FootprintBytes))
	for i, a := range addrs {
		m.Access(a, writes[i])
		sm.Access(a, writes[i])
	}
	// A deterministic migration stream through the facade.
	for p := PageID(0); int(p) < m.NumPages(); p += 3 {
		em := m.MovePage(p, Slow)
		es := sm.MovePage(p, Slow)
		if (em == nil) != (es == nil) {
			t.Fatalf("page %d: MovePage divergence: %v vs %v", p, em, es)
		}
	}
	if m.Counters() != sm.Counters() {
		t.Errorf("counters diverge:\nmachine: %+v\nsharded: %+v", m.Counters(), sm.Counters())
	}
	if m.Now() != sm.Now() {
		t.Errorf("clock diverges: %d vs %d", m.Now(), sm.Now())
	}
	if m.BackgroundNs() != sm.BackgroundNs() {
		t.Errorf("background diverges: %g vs %g", m.BackgroundNs(), sm.BackgroundNs())
	}
	if err := sm.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestShardedRouting covers the page-space bijection: every global
// page maps to exactly one (shard, local) pair and back, and per-page
// state set through the facade reads back through it.
func TestShardedRouting(t *testing.T) {
	cfg := testShardCfg()
	sm := NewShardedMachine(cfg, 4)
	seen := map[[2]int]bool{}
	for p := PageID(0); int(p) < sm.NumPages(); p++ {
		s, lp := sm.shardOf(p), p>>sm.log2
		if lp<<sm.log2|PageID(s) != p {
			t.Fatalf("page %d: round trip via (%d,%d) failed", p, s, lp)
		}
		key := [2]int{s, int(lp)}
		if seen[key] {
			t.Fatalf("page %d: (shard,local) collision at %v", p, key)
		}
		seen[key] = true
		if int(lp) >= sm.shards[s].NumPages() {
			t.Fatalf("page %d: local %d out of range for shard %d (%d pages)",
				p, lp, s, sm.shards[s].NumPages())
		}
	}
	// Per-page bits route: poison + accessed bits set through the facade.
	sm.PoisonPage(5)
	sm.Access(5*uint64(cfg.PageSize), true)
	if sm.Counters().Faults != 1 {
		t.Errorf("poisoned page fault not routed: %+v", sm.Counters())
	}
	if !sm.Accessed(5) || !sm.Dirty(5) {
		t.Error("accessed/dirty bits not routed")
	}
	if !sm.TestAndClearAccessed(5) || sm.Accessed(5) {
		t.Error("TestAndClearAccessed not routed")
	}
}

// TestShardedMovePageHomeShardFull pins the fidelity cost the
// shardscale experiment measures: capacity never leaves its shard, so
// promoting a page whose home shard's fast tier is full fails with
// ErrTierFull even though FreePages shows room on another shard.
func TestShardedMovePageHomeShardFull(t *testing.T) {
	cfg := testShardCfg()
	sm := NewShardedMachine(cfg, 4)
	// Touch every page: fast tiers fill, the rest overflows to slow.
	for p := 0; p < sm.NumPages(); p++ {
		sm.Access(uint64(p)*uint64(cfg.PageSize), false)
	}
	// Free one fast page on shard 3 only.
	freed := false
	for p := PageID(0); int(p) < sm.NumPages() && !freed; p++ {
		if sm.shardOf(p) == 3 && sm.TierOf(p) == Fast {
			if err := sm.FreePage(p); err != nil {
				t.Fatal(err)
			}
			freed = true
		}
	}
	if !freed {
		t.Fatal("no fast page on shard 3 to free")
	}
	if sm.FreePages(Fast) != 1 {
		t.Fatalf("FreePages(Fast) = %d, want 1", sm.FreePages(Fast))
	}

	victim := NoPage
	for p := PageID(0); int(p) < sm.NumPages(); p++ {
		if sm.shardOf(p) == 0 && sm.TierOf(p) == Slow {
			victim = p
			break
		}
	}
	if victim == NoPage {
		t.Fatal("no slow page on shard 0")
	}
	if err := sm.MovePage(victim, Fast); !errors.Is(err, ErrTierFull) {
		t.Fatalf("promotion into a full home shard: got %v, want ErrTierFull", err)
	}
	if sm.TierOf(victim) != Slow {
		t.Error("failed promotion moved the page")
	}
	if err := sm.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestShardedTenantAccessAndMigration is the sharded migration
// property test: tenant access batches interleave with facade
// promotions and demotions, and after every round CheckInvariants
// (per-shard recounts, capacity conservation) plus the per-tenant RSS
// and quota sums must hold.
func TestShardedTenantAccessAndMigration(t *testing.T) {
	cfg := testShardCfg()
	const (
		shards  = 8
		tenants = 3
		writers = 4
		rounds  = 30
	)
	sm := NewShardedMachine(cfg, shards)
	sm.EnableTenants(tenants)
	quota := make([]int, tenants)
	for i := range quota {
		quota[i] = sm.CapacityPages(Fast) / (tenants + 1)
		sm.SetFastQuota(TenantID(i), quota[i])
	}
	type batch struct {
		addrs  []uint64
		writes []bool
	}
	batches := make([]batch, writers)
	for w := range batches {
		batches[w].addrs, batches[w].writes = stream(uint64(w)+100, 2000, uint64(cfg.FootprintBytes))
	}

	check := func(round int) {
		if err := sm.CheckInvariants(); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
		var sum [NumTiers]int
		for ten := 0; ten < tenants; ten++ {
			for tier := 0; tier < NumTiers; tier++ {
				sum[tier] += sm.TenantUsedPages(TenantID(ten), TierID(tier))
			}
			if used := sm.TenantUsedPages(TenantID(ten), Fast); used > quota[ten] {
				t.Errorf("round %d: tenant %d fast RSS %d over quota %d",
					round, ten, used, quota[ten])
			}
		}
		for tier := 0; tier < NumTiers; tier++ {
			if sum[tier] != sm.UsedPages(TierID(tier)) {
				t.Errorf("round %d: tenant %s RSS sums to %d, machine has %d",
					round, TierID(tier), sum[tier], sm.UsedPages(TierID(tier)))
			}
		}
	}

	r := lcg(42)
	for round := 0; round < rounds; round++ {
		for w, b := range batches {
			sm.SetCurrentTenant(TenantID(w % tenants))
			for i, a := range b.addrs {
				sm.Access(a, b.writes[i])
			}
		}
		for i := 0; i < 20; i++ {
			v := r.next()
			p := PageID(v % uint64(sm.NumPages()))
			if v&1 == 0 {
				sm.MovePage(p, Fast)
			} else {
				sm.MovePage(p, Slow)
			}
		}
		check(round)
	}
}

// TestShardedConstructionPanics pins the constructor's contract.
func TestShardedConstructionPanics(t *testing.T) {
	tinySlow := testShardCfg()
	tinySlow.Slow.CapacityPages = 3 // a zero share would mean "unbounded"
	for _, c := range []struct {
		name string
		cfg  Config
		n    int
	}{
		{"zero shards", testShardCfg(), 0},
		{"negative shards", testShardCfg(), -1},
		{"three shards", testShardCfg(), 3},
		{"six shards", testShardCfg(), 6},
		{"slow tier smaller than shard count", tinySlow, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: nshards=%d did not panic", c.name, c.n)
				}
			}()
			NewShardedMachine(c.cfg, c.n)
		}()
	}
}

// TestShardedCapacitySplit checks the deterministic split: per-tier
// capacities, cache lines, and page counts sum exactly to the
// unsharded totals for several shard counts.
func TestShardedCapacitySplit(t *testing.T) {
	cfg := testShardCfg()
	whole := NewMachine(cfg)
	for _, n := range []int{1, 2, 4, 8, 16} {
		sm := NewShardedMachine(cfg, n)
		if sm.NumPages() != whole.NumPages() {
			t.Errorf("n=%d: %d pages, want %d", n, sm.NumPages(), whole.NumPages())
		}
		pages := 0
		for s := 0; s < n; s++ {
			pages += sm.shards[s].NumPages()
		}
		if pages != whole.NumPages() {
			t.Errorf("n=%d: shard pages sum to %d, want %d", n, pages, whole.NumPages())
		}
		for tier := 0; tier < NumTiers; tier++ {
			if got, want := sm.CapacityPages(TierID(tier)), whole.CapacityPages(TierID(tier)); got != want {
				t.Errorf("n=%d: %s capacity %d, want %d", n, TierID(tier), got, want)
			}
		}
	}
}

// TestShardedEnvFacade smoke-tests the Env surface a policy programs
// against on a multi-shard machine: hooks fire with global page IDs.
func TestShardedEnvFacade(t *testing.T) {
	cfg := testShardCfg()
	sm := NewShardedMachine(cfg, 4)
	var allocd []PageID
	sm.SetAllocHook(func(p PageID, tier TierID) { allocd = append(allocd, p) })
	got := map[PageID]bool{}
	sm.SetSampler(samplerFunc(func(p PageID, tier TierID, w bool, now int64) { got[p] = true }))

	addrs, writes := stream(3, 50_000, uint64(cfg.FootprintBytes))
	for i, a := range addrs {
		sm.Access(a, writes[i])
	}

	if len(allocd) == 0 || len(got) == 0 {
		t.Fatalf("hooks did not fire: %d allocs, %d sampled", len(allocd), len(got))
	}
	for _, p := range allocd {
		if int(p) >= sm.NumPages() {
			t.Fatalf("alloc hook got out-of-range global page %d", p)
		}
	}
	for p := range got {
		if int(p) >= sm.NumPages() {
			t.Fatalf("sampler got out-of-range global page %d", p)
		}
		if !sm.Allocated(p) {
			t.Fatalf("sampled page %d not allocated via facade", p)
		}
	}
}

// samplerFunc adapts a function to the Sampler interface.
type samplerFunc func(PageID, TierID, bool, int64)

func (f samplerFunc) OnMiss(p PageID, t TierID, w bool, now int64) { f(p, t, w, now) }

func ExampleShardedMachine() {
	cfg := DefaultConfig(1<<20, 1<<19, 4096)
	sm := NewShardedMachine(cfg, 4)
	sm.Access(0, false)
	sm.Access(4096, true)
	sm.Access(8192, false)
	fmt.Println(sm.NumPages(), sm.UsedPages(Fast))
	// Output: 256 3
}
