package memsim

import (
	"fmt"

	"artmem/internal/telemetry"
	"artmem/internal/tier"
)

// ShardedMachine partitions one simulated machine into N shards. Each
// shard is a complete *Machine — its own page-state arrays, per-tier
// capacity split, CPU cache slice, fractional virtual clock, and
// counter set — holding the global pages whose low shard-index bits
// select it (page p lives on shard p mod N, as local page p div N).
// Striding by the low bits spreads every contiguous hot range across
// all shards, so shard load tracks access volume rather than address
// layout; DESIGN.md §12 derives the key and the capacity split.
//
// It is single-threaded like Machine; pages and capacity never leave
// their shard, so a full home shard fails MovePage with ErrTierFull.
//
// N must be a power of two. N=1 is the compatibility mode: exactly one
// inner Machine built from the unmodified Config, with every address
// and page ID passed through untranslated — byte-identical to a bare
// Machine, which is what keeps the deterministic experiment tables and
// the benchdiff gate stable when sharding is off.
type ShardedMachine struct {
	cfg       Config // the original, pre-split configuration
	numPages  int
	pageShift uint // 0 when PageSize is not a power of two
	nshards   int
	log2      uint   // log2(nshards)
	mask      uint64 // nshards-1

	shards []*Machine

	// origCap pins the machine-wide capacity totals at construction
	// (one entry per tier of the chain); CheckInvariants recounts them.
	origCap []int
}

// NewShardedMachine builds a machine partitioned into nshards shards.
// It panics when nshards is not a positive power of two or exceeds the
// configured page count, or when a bounded tier is too small to give
// every shard a page (a harness programming error, exactly like an
// invalid Config in NewMachine).
func NewShardedMachine(cfg Config, nshards int) *ShardedMachine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if nshards < 1 || nshards&(nshards-1) != 0 {
		panic(fmt.Sprintf("memsim: shard count %d is not a positive power of two", nshards))
	}
	total := cfg.NumPagesFor()
	if nshards > total {
		panic(fmt.Sprintf("memsim: %d shards for %d pages", nshards, total))
	}
	sm := &ShardedMachine{
		cfg:      cfg,
		numPages: total,
		nshards:  nshards,
		mask:     uint64(nshards - 1),
	}
	for 1<<sm.log2 < nshards {
		sm.log2++
	}
	for int64(1)<<sm.pageShift < cfg.PageSize {
		sm.pageShift++
	}
	if int64(1)<<sm.pageShift != cfg.PageSize {
		sm.pageShift = 0
	}
	sm.shards = make([]*Machine, nshards)
	if nshards == 1 {
		// Compatibility mode: the one shard IS the seed machine.
		sm.shards[0] = NewMachine(cfg)
	} else if cfg.Chain != nil {
		// Chain machine: resolve percentage capacities against the
		// whole footprint once, then hand each shard an explicit
		// per-tier page split. An unbounded last tier stays unbounded
		// per shard (each sizes it to its local footprint), mirroring
		// the legacy slow-tier split below.
		resolved, err := cfg.Chain.Resolve(total)
		if err != nil {
			panic(err)
		}
		for _, r := range resolved {
			// A bounded tier must give every shard at least one page:
			// a zero split is invalid for middle tiers and would
			// silently mean "unbounded" for the last one.
			if r.Pages > 0 && r.Pages < nshards {
				panic(fmt.Sprintf("memsim: chain tier %s has %d pages, too small for %d shards",
					r.Name, r.Pages, nshards))
			}
		}
		lines := cfg.CacheLines
		for s := 0; s < nshards; s++ {
			local := (total - s + nshards - 1) / nshards // pages ≡ s (mod N)
			scfg := cfg
			scfg.FootprintBytes = int64(local) * cfg.PageSize
			chain := make([]tier.Desc, len(resolved))
			for i, r := range resolved {
				chain[i] = r.Desc
				chain[i].CapacityPct = 0
				chain[i].CapacityPages = r.Pages/nshards + extra(r.Pages, nshards, s)
			}
			scfg.Chain = chain
			scfg.CacheLines = lines/nshards + extra(lines, nshards, s)
			sm.shards[s] = NewMachine(scfg)
		}
	} else {
		fastCap := cfg.Fast.CapacityPages
		slowCap := cfg.Slow.CapacityPages
		// A bounded slow tier must give every shard at least one page:
		// a zero split would silently mean "unbounded" on that shard.
		if slowCap > 0 && slowCap < nshards {
			panic(fmt.Sprintf("memsim: slow tier has %d pages, too small for %d shards",
				slowCap, nshards))
		}
		lines := cfg.CacheLines
		for s := 0; s < nshards; s++ {
			local := (total - s + nshards - 1) / nshards // pages ≡ s (mod N)
			scfg := cfg
			scfg.FootprintBytes = int64(local) * cfg.PageSize
			scfg.Fast.CapacityPages = fastCap/nshards + extra(fastCap, nshards, s)
			if slowCap > 0 {
				scfg.Slow.CapacityPages = slowCap/nshards + extra(slowCap, nshards, s)
			}
			scfg.CacheLines = lines/nshards + extra(lines, nshards, s)
			sm.shards[s] = NewMachine(scfg)
		}
	}
	sm.origCap = make([]int, sm.shards[0].Tiers())
	for t := range sm.origCap {
		for _, m := range sm.shards {
			sm.origCap[t] += m.CapacityPages(TierID(t))
		}
	}
	return sm
}

// extra distributes a split's remainder deterministically: the low
// rem shards get one extra unit.
func extra(total, n, s int) int {
	if s < total%n {
		return 1
	}
	return 0
}

// shardOf returns the shard that owns global page p.
func (sm *ShardedMachine) shardOf(p PageID) int { return int(uint64(p) & sm.mask) }

// PageOf returns the global page containing byte address addr, with
// Machine.PageOf's wraparound semantics.
func (sm *ShardedMachine) PageOf(addr uint64) PageID {
	var p uint64
	if sm.pageShift != 0 {
		p = addr >> sm.pageShift
	} else {
		p = addr / uint64(sm.cfg.PageSize)
	}
	if p >= uint64(sm.numPages) {
		p %= uint64(sm.numPages)
	}
	return PageID(p)
}

// localAddr rebases addr (whose global page is p) into p's shard-local
// address space, preserving the in-page offset so the shard's CPU
// cache model sees distinct lines for distinct global lines.
func (sm *ShardedMachine) localAddr(p PageID, addr uint64) uint64 {
	lp := uint64(p >> sm.log2)
	if sm.pageShift != 0 {
		return lp<<sm.pageShift | addr&(uint64(sm.cfg.PageSize)-1)
	}
	return lp*uint64(sm.cfg.PageSize) + addr%uint64(sm.cfg.PageSize)
}

// Access performs one application access on the owning shard.
func (sm *ShardedMachine) Access(addr uint64, write bool) {
	if sm.nshards == 1 {
		sm.shards[0].Access(addr, write)
		return
	}
	p := sm.PageOf(addr)
	sm.shards[sm.shardOf(p)].Access(sm.localAddr(p, addr), write)
}

// ---------------------------------------------------------------------
// Facade: the memsim.Env surface plus the tenant and lifecycle
// extensions. With one shard every method delegates untranslated.
// ---------------------------------------------------------------------

// Config returns the original (pre-split) configuration.
func (sm *ShardedMachine) Config() Config { return sm.cfg }

// NumPages returns the size of the global page space.
func (sm *ShardedMachine) NumPages() int { return sm.numPages }

// PageSize returns the page size in bytes.
func (sm *ShardedMachine) PageSize() int64 { return sm.cfg.PageSize }

// Now returns the machine's virtual time: the maximum shard clock.
func (sm *ShardedMachine) Now() int64 {
	now := sm.shards[0].Now()
	for _, m := range sm.shards[1:] {
		if t := m.Now(); t > now {
			now = t
		}
	}
	return now
}

// Counters returns the sum of all shard counters.
func (sm *ShardedMachine) Counters() Counters {
	var c Counters
	for _, m := range sm.shards {
		c.add(m.Counters())
	}
	return c
}

// add accumulates o into c field-by-field.
func (c *Counters) add(o Counters) {
	c.FastAccesses += o.FastAccesses
	c.SlowAccesses += o.SlowAccesses
	c.CacheHits += o.CacheHits
	c.Migrations += o.Migrations
	c.Promotions += o.Promotions
	c.Demotions += o.Demotions
	c.MigratedBytes += o.MigratedBytes
	c.Faults += o.Faults
	c.MigrationFailures += o.MigrationFailures
	c.AllocFast += o.AllocFast
	c.AllocSlow += o.AllocSlow
	c.Freed += o.Freed
	c.ShadowDiscards += o.ShadowDiscards
	c.ShadowInvalidates += o.ShadowInvalidates
	c.ShadowReclaims += o.ShadowReclaims
	c.MigrationStallNs += o.MigrationStallNs
}

// BackgroundNs returns the summed background CPU time of all shards.
func (sm *ShardedMachine) BackgroundNs() float64 {
	var ns float64
	for _, m := range sm.shards {
		ns += m.BackgroundNs()
	}
	return ns
}

// AccessLatencyData merges the shards' latency histograms. Every shard
// shares one cost model, so the bucket bounds are identical and the
// cumulative counts sum elementwise.
func (sm *ShardedMachine) AccessLatencyData() telemetry.HistogramData {
	d := sm.shards[0].AccessLatencyData()
	for _, m := range sm.shards[1:] {
		o := m.AccessLatencyData()
		for i := range d.Counts {
			d.Counts[i] += o.Counts[i]
		}
		d.Sum += o.Sum
	}
	return d
}

// TierOf returns the tier of global page p.
func (sm *ShardedMachine) TierOf(p PageID) TierID {
	return sm.shards[sm.shardOf(p)].TierOf(p >> sm.log2)
}

// Allocated reports whether global page p has been first-touched.
func (sm *ShardedMachine) Allocated(p PageID) bool {
	return sm.shards[sm.shardOf(p)].Allocated(p >> sm.log2)
}

// UsedPages returns resident pages in tier t across all shards.
func (sm *ShardedMachine) UsedPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.UsedPages(t)
	}
	return n
}

// FreePages returns the remaining tier-t capacity across all shards.
// A policy can see aggregate free space that no single shard has;
// MovePage into a full home shard still fails with ErrTierFull.
func (sm *ShardedMachine) FreePages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.FreePages(t)
	}
	return n
}

// CapacityPages returns tier t's total capacity across all shards.
func (sm *ShardedMachine) CapacityPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.CapacityPages(t)
	}
	return n
}

// MovePage migrates global page p within its own shard on the
// background path. A shard-full result surfaces as ErrTierFull even
// when other shards have room — the fidelity cost the shardscale
// experiment measures.
func (sm *ShardedMachine) MovePage(p PageID, dst TierID) error {
	return sm.shards[sm.shardOf(p)].MovePage(p>>sm.log2, dst)
}

// MovePageSync migrates global page p within its shard on the
// application's critical path.
func (sm *ShardedMachine) MovePageSync(p PageID, dst TierID) error {
	return sm.shards[sm.shardOf(p)].MovePageSync(p>>sm.log2, dst)
}

// ChargeBackground adds non-application CPU time to shard 0's
// overhead accounting (BackgroundNs sums shards, so attribution to a
// specific shard is immaterial).
func (sm *ShardedMachine) ChargeBackground(ns float64) {
	sm.shards[0].ChargeBackground(ns)
}

// TestAndClearAccessed reads and clears global page p's accessed bit.
func (sm *ShardedMachine) TestAndClearAccessed(p PageID) bool {
	return sm.shards[sm.shardOf(p)].TestAndClearAccessed(p >> sm.log2)
}

// Accessed returns global page p's accessed bit without clearing it.
func (sm *ShardedMachine) Accessed(p PageID) bool {
	return sm.shards[sm.shardOf(p)].Accessed(p >> sm.log2)
}

// Dirty reports whether global page p has been written.
func (sm *ShardedMachine) Dirty(p PageID) bool {
	return sm.shards[sm.shardOf(p)].Dirty(p >> sm.log2)
}

// PoisonPage arms global page p for a NUMA-hint fault.
func (sm *ShardedMachine) PoisonPage(p PageID) {
	sm.shards[sm.shardOf(p)].PoisonPage(p >> sm.log2)
}

// PoisonRange arms n pages starting at global page start, wrapping at
// the end of the global space, and returns the page after the last
// armed one — Machine.PoisonRange semantics over the global space.
func (sm *ShardedMachine) PoisonRange(start PageID, n int) PageID {
	p := uint64(start)
	for i := 0; i < n; i++ {
		sm.PoisonPage(PageID(p % uint64(sm.numPages)))
		p++
	}
	return PageID(p % uint64(sm.numPages))
}

// shardSampler forwards a shard's miss stream to a global-page-space
// sampler. The timestamp is the shard's own clock (per-shard clocks
// are the deal sharding strikes; each shard's stream stays monotonic).
type shardSampler struct {
	s     Sampler
	shard PageID
	log2  uint
}

func (w shardSampler) OnMiss(p PageID, t TierID, write bool, now int64) {
	w.s.OnMiss(p<<w.log2|w.shard, t, write, now)
}

// SetSampler installs s on every shard, translating shard-local page
// IDs to global ones (nil removes).
func (sm *ShardedMachine) SetSampler(s Sampler) {
	for i, m := range sm.shards {
		if s == nil {
			m.SetSampler(nil)
		} else if sm.nshards == 1 {
			m.SetSampler(s)
		} else {
			m.SetSampler(shardSampler{s, PageID(i), sm.log2})
		}
	}
}

// shardFaults forwards a shard's NUMA-hint faults with global page IDs.
type shardFaults struct {
	h     FaultHandler
	shard PageID
	log2  uint
}

func (w shardFaults) OnFault(p PageID, t TierID, write bool, now int64) {
	w.h.OnFault(p<<w.log2|w.shard, t, write, now)
}

// SetFaultHandler installs h on every shard with global page IDs (nil
// removes).
func (sm *ShardedMachine) SetFaultHandler(h FaultHandler) {
	for i, m := range sm.shards {
		if h == nil {
			m.SetFaultHandler(nil)
		} else if sm.nshards == 1 {
			m.SetFaultHandler(h)
		} else {
			m.SetFaultHandler(shardFaults{h, PageID(i), sm.log2})
		}
	}
}

// SetAllocHook installs h on every shard with global page IDs (nil
// removes).
func (sm *ShardedMachine) SetAllocHook(h func(PageID, TierID)) {
	for i, m := range sm.shards {
		switch {
		case h == nil:
			m.SetAllocHook(nil)
		case sm.nshards == 1:
			m.SetAllocHook(h)
		default:
			shard := PageID(i)
			m.SetAllocHook(func(p PageID, t TierID) {
				h(p<<sm.log2|shard, t)
			})
		}
	}
}

// SetPageTrace installs a page-lifecycle trace on every shard (nil
// removes). With more than one shard the journaled page IDs are
// shard-local — the trace rings are per-shard diagnostics, not a
// global-address journal; DESIGN.md §12 notes the caveat.
func (sm *ShardedMachine) SetPageTrace(pt *telemetry.PageTrace) {
	for _, m := range sm.shards {
		m.SetPageTrace(pt)
	}
}

// SetFaultInjector installs fi on every shard's migration path (nil
// removes). Injector schedules are keyed by per-shard clocks.
func (sm *ShardedMachine) SetFaultInjector(fi FaultInjector) {
	for _, m := range sm.shards {
		m.SetFaultInjector(fi)
	}
}

// FaultInjector returns the installed injector, or nil.
func (sm *ShardedMachine) FaultInjector() FaultInjector {
	return sm.shards[0].FaultInjector()
}

// EnableTenants enables n-tenant accounting on every shard. Machine's
// contract carries over: call before the first allocation, at most
// once.
func (sm *ShardedMachine) EnableTenants(n int) {
	for _, m := range sm.shards {
		m.EnableTenants(n)
	}
}

// NumTenants returns the tenant-table size (0 when tenancy is off).
func (sm *ShardedMachine) NumTenants() int { return sm.shards[0].NumTenants() }

// SetCurrentTenant sets the accounting tenant on every shard.
func (sm *ShardedMachine) SetCurrentTenant(t TenantID) {
	for _, m := range sm.shards {
		m.SetCurrentTenant(t)
	}
}

// SetFastQuota splits tenant t's fast-tier quota across shards the
// same way tier capacity splits (even, remainder to low shards); 0
// clears the quota everywhere. Tenant pages hash across shards like
// everything else, so a proportional split enforces the aggregate
// quota to within the per-shard rounding.
func (sm *ShardedMachine) SetFastQuota(t TenantID, pages int) {
	for s, m := range sm.shards {
		if pages <= 0 {
			m.SetFastQuota(t, 0)
			continue
		}
		q := pages/sm.nshards + extra(pages, sm.nshards, s)
		if q < 1 {
			q = 1 // a zero share would mean "unlimited" on that shard
		}
		m.SetFastQuota(t, q)
	}
}

// TenantUsedPages returns tenant t's resident pages in tier `tier`
// summed across shards.
func (sm *ShardedMachine) TenantUsedPages(t TenantID, tier TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.TenantUsedPages(t, tier)
	}
	return n
}

// TenantCounters returns tenant t's counters summed across shards.
func (sm *ShardedMachine) TenantCounters(t TenantID) TenantCounters {
	var c TenantCounters
	for _, m := range sm.shards {
		o := m.TenantCounters(t)
		c.FastAccesses += o.FastAccesses
		c.SlowAccesses += o.SlowAccesses
		c.CacheHits += o.CacheHits
		c.AllocFast += o.AllocFast
		c.AllocSlow += o.AllocSlow
		c.Promotions += o.Promotions
		c.Demotions += o.Demotions
		c.Faults += o.Faults
		c.AppNs += o.AppNs
	}
	return c
}

// OwnerOf returns the tenant owning global page p.
func (sm *ShardedMachine) OwnerOf(p PageID) TenantID {
	return sm.shards[sm.shardOf(p)].OwnerOf(p >> sm.log2)
}

// FreePage unallocates global page p (Machine.FreePage semantics).
func (sm *ShardedMachine) FreePage(p PageID) error {
	return sm.shards[sm.shardOf(p)].FreePage(p >> sm.log2)
}

// CheckInvariants verifies every shard's page accounting plus the
// conservation law: the machine-wide per-tier capacity totals must
// equal the constructed totals.
func (sm *ShardedMachine) CheckInvariants() error {
	for s, m := range sm.shards {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	for t := range sm.origCap {
		total := 0
		for _, m := range sm.shards {
			total += m.CapacityPages(TierID(t))
		}
		if total != sm.origCap[t] {
			return fmt.Errorf("memsim: %s capacity not conserved: %d != %d",
				sm.shards[0].TierName(TierID(t)), total, sm.origCap[t])
		}
	}
	return nil
}

// Tiers returns the number of memory tiers.
func (sm *ShardedMachine) Tiers() int { return sm.shards[0].Tiers() }

// NumBoundaries returns the number of adjacent tier pairs.
func (sm *ShardedMachine) NumBoundaries() int { return sm.shards[0].NumBoundaries() }

// TierName returns tier t's label (see Machine.TierName).
func (sm *ShardedMachine) TierName(t TierID) string { return sm.shards[0].TierName(t) }

// TierSpecAt returns tier t's spec with the machine-wide capacity.
func (sm *ShardedMachine) TierSpecAt(t TierID) TierSpec {
	s := sm.shards[0].TierSpecAt(t)
	s.CapacityPages = sm.CapacityPages(t)
	return s
}

// TierAccesses returns cache-missing accesses served by tier t across
// all shards.
func (sm *ShardedMachine) TierAccesses(t TierID) uint64 {
	var n uint64
	for _, m := range sm.shards {
		n += m.TierAccesses(t)
	}
	return n
}

// ShadowPages returns shadow frames held in tier t across all shards.
func (sm *ShardedMachine) ShadowPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.ShadowPages(t)
	}
	return n
}

// ResidentPages returns pages resident in tier t across all shards.
func (sm *ShardedMachine) ResidentPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.ResidentPages(t)
	}
	return n
}

// BoundaryStatsAt returns boundary b's migration counters summed
// across shards.
func (sm *ShardedMachine) BoundaryStatsAt(b int) BoundaryStats {
	var s BoundaryStats
	for _, m := range sm.shards {
		o := m.BoundaryStatsAt(b)
		s.Promotions += o.Promotions
		s.Demotions += o.Demotions
		s.ShadowDiscards += o.ShadowDiscards
	}
	return s
}

var _ Env = (*ShardedMachine)(nil)
