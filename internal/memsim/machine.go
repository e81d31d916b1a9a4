package memsim

import (
	"errors"
	"fmt"

	"artmem/internal/telemetry"
	"artmem/internal/tier"
)

// Sampler receives a callback for every cache-missing memory access. The
// PEBS model in internal/pebs implements it; the sampler itself decides
// which events to record (sampling period, buffer space).
type Sampler interface {
	OnMiss(page PageID, tier TierID, write bool, now int64)
}

// FaultHandler receives NUMA-hint faults: the first access to a page that
// has been armed with PoisonPage/PoisonRange fires a fault, after which
// the page is disarmed until re-poisoned. Fault-driven policies
// (AutoNUMA, TPP, AutoTiering, Tiering-0.8) implement this.
type FaultHandler interface {
	OnFault(page PageID, tier TierID, write bool, now int64)
}

// FaultInjector lets a chaos harness perturb the machine's migration
// path. internal/faultinject implements it; the machine consults it (when
// installed) on every MovePage attempt. Both hooks receive the virtual
// clock so schedules are expressed in simulated time.
type FaultInjector interface {
	// FailMigration reports whether the current migration attempt should
	// fail transiently with ErrMigrationBusy.
	FailMigration(now int64) bool
	// BandwidthFactor returns a multiplier (>= 1) applied to the
	// migration transfer cost — bandwidth degradation under contention.
	BandwidthFactor(now int64) float64
}

// Counters aggregates the machine's observable activity. Access counters
// count cache-missing memory accesses (the events a real PMU would see).
type Counters struct {
	// FastAccesses and SlowAccesses count cache-missing accesses served
	// by each tier. Their ratio is the ground-truth DRAM access ratio
	// (the "perf" view in the paper's evaluation).
	FastAccesses uint64
	SlowAccesses uint64
	// CacheHits counts accesses absorbed by the CPU cache model.
	CacheHits uint64
	// Migrations counts pages moved between tiers; Promotions (slow→fast)
	// and Demotions (fast→slow) break it down. MigratedBytes is the total
	// volume moved.
	Migrations    uint64
	Promotions    uint64
	Demotions     uint64
	MigratedBytes uint64
	// Faults counts NUMA-hint faults taken.
	Faults uint64
	// MigrationFailures counts MovePage attempts that failed transiently
	// with ErrMigrationBusy (only injected faults produce these today).
	MigrationFailures uint64
	// Allocations counts first-touch page allocations, split by tier.
	AllocFast uint64
	AllocSlow uint64
	// Freed counts pages unallocated by FreePage (tenant reclamation);
	// a rolled-back free (RestorePage) is not counted.
	Freed uint64
	// Non-exclusive (Nomad-style) migration activity, all zero unless
	// Config.NonExclusive is set. ShadowDiscards counts demotions that
	// completed as free discards onto a clean shadow copy (counted in
	// Migrations/Demotions but transferring no bytes);
	// ShadowInvalidates counts shadows dropped because their page was
	// written; ShadowReclaims counts shadow frames evicted to make room
	// for an allocation or migration.
	ShadowDiscards    uint64
	ShadowInvalidates uint64
	ShadowReclaims    uint64
	// MigrationStallNs is the cumulative application-visible migration
	// interference in whole virtual nanoseconds: the interference share
	// of every migration's transfer cost, exactly the amount the
	// virtual clock advanced on the app's behalf during migrations.
	// The serving layer differences it to attribute migration stall
	// out of a batch's queue wait (telemetry spans).
	MigrationStallNs uint64
}

// DRAMRatio returns the fraction of cache-missing accesses served by the
// fast tier, in [0,1]; 0 when there were no accesses.
func (c Counters) DRAMRatio() float64 {
	tot := c.FastAccesses + c.SlowAccesses
	if tot == 0 {
		return 0
	}
	return float64(c.FastAccesses) / float64(tot)
}

// Machine is the simulated tiered memory system: the tier chain of
// Config.Chain, tier 0 fastest (the paper's fast/slow pair under
// DefaultConfig). It is not safe for concurrent use; the online
// runtime in internal/core serializes access to it.
type Machine struct {
	cfg       Config
	pageShift uint
	numPages  int
	addrSpan  uint64 // numPages·PageSize: Access wraps addresses into [0, addrSpan)
	nt        int    // number of tiers, len(Config.Chain)

	clock int64 // virtual time, ns

	// Per-page state, indexed by PageID.
	tier      []TierID
	allocated []bool
	accessed  []bool // page-table accessed ("young") bits
	dirty     []bool
	poisoned  []bool // armed for a NUMA-hint fault

	// The resolved tier chain (every capacity a page count); its names
	// label tiers in traces and telemetry. All per-tier slices have
	// length nt.
	specs tier.Chain

	used []int // frames in use per tier: residents + shadow copies
	cap  []int

	// Cost model, precomputed per tier: latency + 64B transfer.
	readCostNs  []float64
	writeCostNs []float64
	// Migration transfer cost per page between tiers, ns.
	migCostNs [][]float64

	// sh tracks shadow copies under non-exclusive migration; nil unless
	// Config.NonExclusive, costing the exclusive mode one branch per
	// write and per migration.
	sh *tier.ShadowTable

	// Per-boundary migration counters (boundary b = edge between tiers
	// b and b+1), length nt-1. A move is attributed to the boundary on
	// its destination side: promotions to boundary dst, demotions to
	// boundary dst-1.
	bndProm []uint64
	bndDem  []uint64
	bndDisc []uint64

	cache cacheModel

	sampler   Sampler
	faults    FaultHandler
	injector  FaultInjector
	onAlloc   func(PageID, TierID)
	pageTrace *telemetry.PageTrace

	ctr Counters
	// Background (non-application) virtual CPU time consumed by
	// migrations, in ns. The interference share is already folded into
	// the clock.
	backgroundNs float64
	// fractional ns accumulator so sub-ns costs are not lost.
	clockFrac float64
	// fractional ns accumulator for Counters.MigrationStallNs.
	stallFrac float64

	// Access-latency accounting. Every access is served at one of five
	// constant model costs (cache hit, fast/slow × read/write), so the
	// latency distribution is fully described by five plain counters —
	// the same cost as the existing counter increments, which is what
	// keeps telemetry off the hot path (see DESIGN.md §6).
	latCounts []uint64 // 1 + 2*nt classes: cache hit, then read/write per tier

	// ts holds multi-tenant accounting (owner tags, per-tenant RSS and
	// counters, fast-tier quotas); nil on single-tenant machines, where
	// every accounting site reduces to one branch. See tenant.go.
	ts *tenantState
}

// Latency classes indexing latCounts. Tier t's read class is
// latFastRead + 2*t, its write class one above; chains extend the
// ladder downward tier by tier.
const (
	latCacheHit = iota
	latFastRead
	latFastWrite
	latSlowRead
	latSlowWrite
)

// NewMachine builds a Machine from cfg. It panics on an invalid
// configuration (configs are built by the harness; an invalid one is a
// programming error, not an input error).
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumPagesFor()
	m := &Machine{
		cfg:       cfg,
		numPages:  n,
		addrSpan:  uint64(n) * uint64(cfg.PageSize),
		tier:      make([]TierID, n),
		allocated: make([]bool, n),
		accessed:  make([]bool, n),
		dirty:     make([]bool, n),
		poisoned:  make([]bool, n),
	}
	m.pageShift = uint(0)
	for int64(1)<<m.pageShift < cfg.PageSize {
		m.pageShift++
	}
	if int64(1)<<m.pageShift != cfg.PageSize {
		// Non-power-of-two page size: fall back to division in addrToPage.
		m.pageShift = 0
	}
	specs, err := cfg.Chain.Resolve(n)
	if err != nil {
		panic(err)
	}
	m.specs = specs
	m.nt = len(specs)
	m.used = make([]int, m.nt)
	m.cap = make([]int, m.nt)
	for t := range specs {
		m.cap[t] = specs[t].CapacityPages
	}
	m.readCostNs = make([]float64, m.nt)
	m.writeCostNs = make([]float64, m.nt)
	m.migCostNs = make([][]float64, m.nt)
	for t := 0; t < m.nt; t++ {
		m.readCostNs[t] = m.specs[t].LatencyNs + 64/gbsToBytesPerNs(m.specs[t].ReadBWGBs)
		m.writeCostNs[t] = m.specs[t].LatencyNs + 64/gbsToBytesPerNs(m.specs[t].WriteBWGBs)
	}
	for src := 0; src < m.nt; src++ {
		m.migCostNs[src] = make([]float64, m.nt)
		for dst := 0; dst < m.nt; dst++ {
			read := gbsToBytesPerNs(m.specs[src].ReadBWGBs)
			write := gbsToBytesPerNs(m.specs[dst].WriteBWGBs)
			bw := read
			if write < bw {
				bw = write
			}
			m.migCostNs[src][dst] = float64(cfg.PageSize)/bw + cfg.MigrationFixedNs
		}
	}
	m.latCounts = make([]uint64, 1+2*m.nt)
	m.bndProm = make([]uint64, m.nt-1)
	m.bndDem = make([]uint64, m.nt-1)
	m.bndDisc = make([]uint64, m.nt-1)
	if cfg.NonExclusive {
		m.sh = tier.NewShadowTable(n, m.nt)
	}
	if cfg.CacheLines > 0 {
		m.cache.init(cfg.CacheLines)
	}
	return m
}

func gbsToBytesPerNs(gbs float64) float64 {
	// 1 GB/s == 1 byte/ns (decimal GB). Table 2 uses GB/s.
	return gbs
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumPages returns the size of the simulated address space in pages.
func (m *Machine) NumPages() int { return m.numPages }

// PageSize returns the page size in bytes.
func (m *Machine) PageSize() int64 { return m.cfg.PageSize }

// Now returns the current virtual time in nanoseconds.
func (m *Machine) Now() int64 { return m.clock }

// BackgroundNs returns virtual CPU time consumed off the application's
// critical path (migration transfer time not charged as interference).
func (m *Machine) BackgroundNs() float64 { return m.backgroundNs }

// Counters returns a snapshot of the machine's cumulative counters.
func (m *Machine) Counters() Counters { return m.ctr }

// SetSampler installs the hardware-sampling hook (nil to remove).
func (m *Machine) SetSampler(s Sampler) { m.sampler = s }

// AccessLatencyData returns the access-latency distribution as
// histogram buckets. Every access is served at one of 1+2N constant
// model costs (cache hit, read/write per tier), so the exact
// distribution is reconstructed from per-class counters with zero
// hot-path overhead. Not safe to call concurrently with Access; the
// online runtime reads it under its lock.
func (m *Machine) AccessLatencyData() telemetry.HistogramData {
	type bin struct {
		cost float64
		n    uint64
	}
	bins := make([]bin, 0, 1+2*m.nt)
	bins = append(bins, bin{m.cfg.CacheHitNs, m.latCounts[latCacheHit]})
	for t := 0; t < m.nt; t++ {
		bins = append(bins, bin{m.readCostNs[t], m.latCounts[latFastRead+2*t]})
		bins = append(bins, bin{m.writeCostNs[t], m.latCounts[latFastWrite+2*t]})
	}
	// Sort by cost and merge classes that share one (e.g. symmetric
	// read/write bandwidth), keeping bucket bounds strictly increasing.
	for i := 1; i < len(bins); i++ {
		for j := i; j > 0 && bins[j].cost < bins[j-1].cost; j-- {
			bins[j], bins[j-1] = bins[j-1], bins[j]
		}
	}
	d := telemetry.HistogramData{}
	var acc uint64
	for _, b := range bins {
		acc += b.n
		d.Sum += b.cost * float64(b.n)
		if n := len(d.Bounds); n > 0 && d.Bounds[n-1] == b.cost {
			d.Counts[n-1] = acc
			continue
		}
		d.Bounds = append(d.Bounds, b.cost)
		d.Counts = append(d.Counts, acc)
	}
	// Trailing +Inf bucket: nothing lands above the largest model cost.
	d.Counts = append(d.Counts, acc)
	return d
}

// SetFaultHandler installs the NUMA-hint-fault hook (nil to remove).
func (m *Machine) SetFaultHandler(h FaultHandler) { m.faults = h }

// SetFaultInjector installs a fault injector consulted on the migration
// path (nil to remove). Install it before attaching a policy: policies
// that sample (ArtMem) wire the injector into their sampler at Attach.
func (m *Machine) SetFaultInjector(fi FaultInjector) { m.injector = fi }

// FaultInjector returns the installed fault injector, or nil.
func (m *Machine) FaultInjector() FaultInjector { return m.injector }

// SetAllocHook installs a callback invoked on every first-touch page
// allocation. Tiering policies use it to enroll new pages in their LRU
// structures.
func (m *Machine) SetAllocHook(h func(PageID, TierID)) { m.onAlloc = h }

// SetPageTrace installs a page-lifecycle trace (nil to remove). The
// machine journals first-touch placement and migration outcomes for
// pages in the trace's hash-selected subset.
func (m *Machine) SetPageTrace(pt *telemetry.PageTrace) { m.pageTrace = pt }

// PageOf returns the page containing byte address addr. Addresses beyond
// the footprint wrap (workload generators keep addresses in range; the
// wrap keeps a stray address from corrupting memory accounting).
func (m *Machine) PageOf(addr uint64) PageID {
	var p uint64
	if m.pageShift != 0 {
		p = addr >> m.pageShift
	} else {
		p = addr / uint64(m.cfg.PageSize)
	}
	if p >= uint64(m.numPages) {
		p %= uint64(m.numPages)
	}
	return PageID(p)
}

// TierOf returns the tier a page resides in. Unallocated pages report
// their future first-touch placement (Fast if it has room).
func (m *Machine) TierOf(p PageID) TierID { return m.tier[p] }

// Allocated reports whether the page has been first-touched.
func (m *Machine) Allocated(p PageID) bool { return m.allocated[p] }

// UsedPages returns the number of resident pages in tier t.
func (m *Machine) UsedPages(t TierID) int { return m.used[t] }

// FreePages returns the remaining capacity of tier t in pages.
func (m *Machine) FreePages(t TierID) int { return m.cap[t] - m.used[t] }

// CapacityPages returns the capacity of tier t in pages.
func (m *Machine) CapacityPages(t TierID) int { return m.cap[t] }

// Access simulates one memory access to byte address addr and advances
// the virtual clock. This is the simulation's hot path.
func (m *Machine) Access(addr uint64, write bool) {
	if addr >= m.addrSpan {
		// The alias PageOf would pick, taken before the line too so the
		// cache model sees only lines its tags can name.
		addr %= m.addrSpan
	}
	p := m.PageOf(addr)
	if !m.allocated[p] {
		m.allocate(p)
	}
	m.accessed[p] = true
	if write {
		m.dirty[p] = true
		if m.sh != nil {
			// Invalidate-on-write: the shadow copy is stale now. Its
			// frame frees immediately.
			if st, ok := m.sh.At(uint32(p)); ok {
				m.sh.Remove(uint32(p))
				m.used[st]--
				m.ctr.ShadowInvalidates++
			}
		}
	}
	if m.poisoned[p] {
		m.poisoned[p] = false
		m.ctr.Faults++
		if m.ts != nil {
			m.ts.ctr[m.ts.current].Faults++
		}
		m.advance(m.cfg.FaultCostNs)
		if m.faults != nil {
			m.faults.OnFault(p, m.tier[p], write, m.clock)
		}
	}
	if m.cache.lookup(addr >> 6) {
		m.ctr.CacheHits++
		m.latCounts[latCacheHit]++
		m.advance(m.cfg.CacheHitNs)
		if m.ts != nil {
			tc := &m.ts.ctr[m.ts.current]
			tc.CacheHits++
			tc.AppNs += m.cfg.CacheHitNs
		}
		return
	}
	t := m.tier[p]
	var cost float64
	cls := latFastRead + 2*int(t)
	if write {
		cost = m.writeCostNs[t]
		cls++
	} else {
		cost = m.readCostNs[t]
	}
	m.latCounts[cls]++
	m.advance(cost)
	if t == Fast {
		m.ctr.FastAccesses++
	} else {
		m.ctr.SlowAccesses++
	}
	if m.ts != nil {
		tc := &m.ts.ctr[m.ts.current]
		if t == Fast {
			tc.FastAccesses++
		} else {
			tc.SlowAccesses++
		}
		tc.AppNs += cost
	}
	if m.sampler != nil {
		m.sampler.OnMiss(p, t, write, m.clock)
	}
}

// advance adds ns of application time, carrying fractional nanoseconds.
func (m *Machine) advance(ns float64) {
	m.clockFrac += ns
	whole := int64(m.clockFrac)
	m.clock += whole
	m.clockFrac -= float64(whole)
}

// AdvanceIdle advances the virtual clock by ns without any memory
// activity (compute-only phases in workload models).
func (m *Machine) AdvanceIdle(ns float64) {
	if ns > 0 {
		m.advance(ns)
	}
}

// allocate performs first-touch placement: fastest tier first,
// overflowing down the chain tier by tier (the paper's setup: "ArtMem
// first places pages in fast memory before overflowing to the slower
// tier", §6.2 — the same policy applies to every evaluated system).
// Under non-exclusive migration a tier full only of shadow frames still
// accepts allocations: shadows are reclaimable on demand.
func (m *Machine) allocate(p PageID) {
	last := TierID(m.nt - 1)
	t := last
	for i := TierID(0); i < last; i++ {
		if m.used[i] < m.cap[i] || m.reclaimShadow(i) {
			t = i
			break
		}
	}
	if t == last && m.used[last] >= m.cap[last] {
		m.reclaimShadow(last)
	}
	if m.ts != nil {
		cur := m.ts.current
		if t == Fast {
			if q := m.ts.quota[cur]; q > 0 && m.ts.used[cur][Fast] >= q {
				// Quota exhausted: first touch overflows to the slow
				// tier — the memcg analogue of allocating past the
				// fast-tier limit.
				t = Slow
			}
		}
		m.ts.owner[p] = cur
		m.ts.used[cur][t]++
		if t == Fast {
			m.ts.ctr[cur].AllocFast++
		} else {
			m.ts.ctr[cur].AllocSlow++
		}
	}
	if t == Fast {
		m.ctr.AllocFast++
	} else {
		m.ctr.AllocSlow++
	}
	m.tier[p] = t
	m.allocated[p] = true
	m.used[t]++
	if m.pageTrace.Sampled(uint64(p)) {
		m.pageTrace.Append(telemetry.PageEvent{
			TimeNs: m.clock,
			Page:   uint64(p),
			Kind:   telemetry.PageKindAlloc,
			Tier:   m.specs[t].Name,
		})
	}
	if m.onAlloc != nil {
		m.onAlloc(p, t)
	}
	if m.used[last] > m.cap[last] {
		// The footprint exceeded total machine capacity; this is a
		// harness configuration error worth failing loudly on.
		panic(fmt.Sprintf("memsim: %s tier overflow (%d > %d pages)",
			m.specs[last].Name, m.used[last], m.cap[last]))
	}
}

// reclaimShadow evicts one shadow frame from tier t to free a frame,
// reporting whether it did. Shadow eviction is free (the resident copy
// is elsewhere; nothing transfers).
func (m *Machine) reclaimShadow(t TierID) bool {
	if m.sh == nil {
		return false
	}
	if _, ok := m.sh.PopReclaim(int(t)); ok {
		m.used[t]--
		m.ctr.ShadowReclaims++
		return true
	}
	return false
}

// ErrTierFull is returned by MovePage when the destination tier has no
// free capacity.
var ErrTierFull = errors.New("memsim: destination tier full")

// ErrNotAllocated is returned by MovePage for pages never touched.
var ErrNotAllocated = errors.New("memsim: page not allocated")

// ErrMigrationBusy is returned by MovePage when an installed fault
// injector fails the attempt transiently — the simulator's analogue of
// migrate_pages returning -EAGAIN on a busy or pinned page. Callers
// should retry or skip the page; the machine's state is unchanged.
var ErrMigrationBusy = errors.New("memsim: page busy, migration failed transiently")

// MovePage migrates page p to tier dst on the background migration
// path: the configured interference fraction of the transfer time is
// charged to the application, the rest overlaps with execution. Moving
// a page to its current tier is a no-op.
func (m *Machine) MovePage(p PageID, dst TierID) error {
	return m.movePage(p, dst, m.cfg.MigrationInterference)
}

// MovePageSync migrates page p synchronously on the application's
// critical path: the full transfer time is charged to application time.
// This models access-path migration — e.g. AutoTiering's opportunistic
// exchange, which copies pages during the fault that triggered it.
func (m *Machine) MovePageSync(p PageID, dst TierID) error {
	return m.movePage(p, dst, 1)
}

func (m *Machine) movePage(p PageID, dst TierID, appFrac float64) error {
	if !m.allocated[p] {
		return ErrNotAllocated
	}
	src := m.tier[p]
	if src == dst {
		return nil
	}
	if m.sh != nil {
		if st, ok := m.sh.At(uint32(p)); ok && TierID(st) == dst {
			// Non-exclusive discard-on-demote: the destination already
			// holds a clean copy of the page (the shadow left by its
			// promotion), so the demotion is a pointer flip — the fast
			// frame frees, the shadow becomes the resident copy, and
			// nothing transfers. This is the re-migration Nomad avoids.
			m.sh.Remove(uint32(p))
			m.used[src]--
			m.tier[p] = dst
			m.ctr.Migrations++
			m.ctr.Demotions++
			m.ctr.ShadowDiscards++
			m.bndDem[int(dst)-1]++
			m.bndDisc[int(dst)-1]++
			m.tracePageMove(p, src, dst, telemetry.OutcomeDiscarded)
			return nil
		}
	}
	if m.used[dst] >= m.cap[dst] {
		if !m.reclaimShadow(dst) {
			m.tracePageMove(p, src, dst, telemetry.OutcomeTierFull)
			return ErrTierFull
		}
	}
	var owner TenantID
	if m.ts != nil {
		owner = m.ts.owner[p]
		if dst == Fast {
			if q := m.ts.quota[owner]; q > 0 && m.ts.used[owner][Fast] >= q {
				m.tracePageMove(p, src, dst, telemetry.OutcomeQuotaFull)
				return ErrTenantQuota
			}
		}
	}
	cost := m.migCostNs[src][dst]
	if m.injector != nil {
		if m.injector.FailMigration(m.clock) {
			m.ctr.MigrationFailures++
			m.tracePageMove(p, src, dst, telemetry.OutcomeBusy)
			return ErrMigrationBusy
		}
		if f := m.injector.BandwidthFactor(m.clock); f > 1 {
			cost *= f
		}
	}
	if m.sh != nil && dst < src {
		// Non-exclusive promotion: copy up, keep the source frame as a
		// clean shadow. A page carries at most one shadow — promoting
		// from a tier while an older, deeper shadow exists drops the
		// old one first (its frame frees).
		if st, ok := m.sh.At(uint32(p)); ok {
			m.sh.Remove(uint32(p))
			m.used[st]--
			m.ctr.ShadowInvalidates++
		}
		m.sh.Add(uint32(p), int(src))
	} else {
		m.used[src]--
		if m.sh != nil {
			// Demotion: a shadow strictly below the new residence is
			// still a valid clean copy and stays; one at or above it
			// would invert the invariant, so it frees.
			if st, ok := m.sh.At(uint32(p)); ok && TierID(st) <= dst {
				m.sh.Remove(uint32(p))
				m.used[st]--
				m.ctr.ShadowInvalidates++
			}
		}
	}
	m.used[dst]++
	m.tier[p] = dst
	m.advance(cost * appFrac)
	m.stallFrac += cost * appFrac
	whole := uint64(m.stallFrac)
	m.ctr.MigrationStallNs += whole
	m.stallFrac -= float64(whole)
	m.backgroundNs += cost * (1 - appFrac)
	m.ctr.Migrations++
	m.ctr.MigratedBytes += uint64(m.cfg.PageSize)
	if dst < src {
		m.ctr.Promotions++
		m.bndProm[dst]++
	} else {
		m.ctr.Demotions++
		m.bndDem[int(dst)-1]++
	}
	if m.ts != nil {
		m.ts.used[owner][src]--
		m.ts.used[owner][dst]++
		if dst == Fast {
			m.ts.ctr[owner].Promotions++
		} else {
			m.ts.ctr[owner].Demotions++
		}
	}
	m.tracePageMove(p, src, dst, telemetry.OutcomeSettled)
	return nil
}

// tracePageMove journals one migration-attempt outcome for a sampled
// page. A nil trace or an unsampled page costs one branch.
func (m *Machine) tracePageMove(p PageID, src, dst TierID, outcome string) {
	if !m.pageTrace.Sampled(uint64(p)) {
		return
	}
	m.pageTrace.Append(telemetry.PageEvent{
		TimeNs:  m.clock,
		Page:    uint64(p),
		Kind:    telemetry.PageKindMigration,
		From:    m.specs[src].Name,
		To:      m.specs[dst].Name,
		Outcome: outcome,
	})
}

// ChargeBackground adds ns of background CPU time (sampling threads,
// policy computation) to the overhead accounting without delaying the
// application. The paper's §6.4 reports these as CPU overheads.
func (m *Machine) ChargeBackground(ns float64) { m.backgroundNs += ns }

// TestAndClearAccessed returns the page's accessed bit and clears it —
// the primitive used by page-table-scanning policies (Nimble,
// Multi-clock), mirroring the kernel's test_and_clear_young.
func (m *Machine) TestAndClearAccessed(p PageID) bool {
	a := m.accessed[p]
	m.accessed[p] = false
	return a
}

// Accessed returns the page's accessed bit without clearing it.
func (m *Machine) Accessed(p PageID) bool { return m.accessed[p] }

// Dirty returns whether the page has been written since allocation.
func (m *Machine) Dirty(p PageID) bool { return m.dirty[p] }

// CheckInvariants verifies the machine's page accounting: per-tier used
// counters match a full recount of the tier map over allocated pages
// (each page is in exactly one tier by construction; the recount catches
// counter drift), no tier exceeds its capacity, and the allocation
// counters agree with the number of allocated pages. Under non-exclusive
// migration it additionally recounts the shadow table: every shadow
// belongs to an allocated page resident in a strictly faster tier (a
// write would have invalidated it; a demotion onto it would have
// discarded it), and each tier's used counter equals residents plus
// shadow frames. It is O(pages) and intended for tests and chaos
// harnesses, not hot paths. It returns nil when all invariants hold.
func (m *Machine) CheckInvariants() error {
	used := make([]int, m.nt)
	allocated := 0
	for p, ok := range m.allocated {
		if !ok {
			continue
		}
		allocated++
		t := m.tier[p]
		if int(t) >= m.nt {
			return fmt.Errorf("memsim: page %d in invalid tier %d", p, t)
		}
		used[t]++
	}
	shadows := make([]int, m.nt)
	if m.sh != nil {
		for p := 0; p < m.numPages; p++ {
			st, ok := m.sh.At(uint32(p))
			if !ok {
				continue
			}
			if !m.allocated[p] {
				return fmt.Errorf("memsim: shadow copy of unallocated page %d in %s", p, m.specs[st].Name)
			}
			if int(m.tier[p]) >= st {
				return fmt.Errorf("memsim: page %d resident in %s but shadowed in %s (shadow must be strictly below)",
					p, m.specs[m.tier[p]].Name, m.specs[st].Name)
			}
			shadows[st]++
		}
		for t := 0; t < m.nt; t++ {
			if shadows[t] != m.sh.Count(t) {
				return fmt.Errorf("memsim: %s shadow stack holds %d pages, recounted %d",
					m.specs[t].Name, m.sh.Count(t), shadows[t])
			}
		}
	}
	for t := 0; t < m.nt; t++ {
		if used[t]+shadows[t] != m.used[t] {
			return fmt.Errorf("memsim: %s tier counter %d != recounted %d residents + %d shadows",
				m.specs[t].Name, m.used[t], used[t], shadows[t])
		}
		if m.used[t] > m.cap[t] {
			return fmt.Errorf("memsim: %s tier over capacity (%d > %d pages)",
				m.specs[t].Name, m.used[t], m.cap[t])
		}
	}
	if total := m.ctr.AllocFast + m.ctr.AllocSlow - m.ctr.Freed; total != uint64(allocated) {
		return fmt.Errorf("memsim: allocation counters %d (net of %d freed) != %d allocated pages",
			total, m.ctr.Freed, allocated)
	}
	if m.ts != nil {
		// Per-tenant RSS: recount (owner, tier) over allocated pages and
		// check both the per-tenant counters and that the tenant split
		// sums back to the machine totals. Over-quota residency is NOT a
		// violation — a dynamically shrunk quota only gates new growth.
		n := len(m.ts.used)
		tused := make([][NumTiers]int, n)
		for p, ok := range m.allocated {
			if !ok {
				continue
			}
			o := m.ts.owner[p]
			if int(o) >= n {
				return fmt.Errorf("memsim: page %d owned by invalid tenant %d", p, o)
			}
			tused[o][m.tier[p]]++
		}
		var sum [NumTiers]int
		for i := range tused {
			for t := 0; t < NumTiers; t++ {
				if tused[i][t] != m.ts.used[i][t] {
					return fmt.Errorf("memsim: tenant %d %s counter %d != recounted %d",
						i, TierID(t), m.ts.used[i][t], tused[i][t])
				}
				sum[t] += tused[i][t]
			}
		}
		for t := 0; t < NumTiers; t++ {
			if sum[t] != m.used[t] {
				return fmt.Errorf("memsim: tenant %s pages sum to %d, machine has %d",
					TierID(t), sum[t], m.used[t])
			}
		}
	}
	return nil
}

// PoisonPage arms page p so its next access raises a NUMA-hint fault.
func (m *Machine) PoisonPage(p PageID) { m.poisoned[p] = true }

// PoisonRange arms n pages starting at page start, wrapping at the end of
// the address space — the moving scan window of the kernel's NUMA
// balancing. It returns the page after the last armed page.
func (m *Machine) PoisonRange(start PageID, n int) PageID {
	p := uint64(start)
	for i := 0; i < n; i++ {
		m.poisoned[p%uint64(m.numPages)] = true
		p++
	}
	return PageID(p % uint64(m.numPages))
}
