package policies

import (
	"artmem/internal/lru"
	"artmem/internal/memsim"
)

// This file implements the four fault-driven baselines. All of them
// observe memory behaviour the way the kernel's NUMA balancing does: a
// scanner periodically arms ("poisons") a sliding window of the address
// space, and the next access to an armed page takes a hint fault, which
// is the policy's only per-access signal. The policies differ in what
// they do with those faults — exactly the design axis Table 1 compares.

// faultScanDivisor sets the poison window: it advances
// footprint/faultScanDivisor pages per tick (kernel NUMA balancing
// covers the address space over several scan periods).
const faultScanDivisor = 8

// faultBase extends base with the poison-scanner and per-page fault
// counters shared by the fault-driven group.
type faultBase struct {
	base
	scanCursor memsim.PageID
	faultCnt   []uint8
	// pending collects slow-tier pages whose faults qualified them for
	// promotion; the tick migrates them (the kernel defers migration to
	// task_numa_work / kpromoted).
	pending []memsim.PageID
	queued  []bool
}

func (f *faultBase) attach(m memsim.Env) {
	f.base.attach(m)
	f.faultCnt = make([]uint8, m.NumPages())
	f.queued = make([]bool, m.NumPages())
	// Each concrete policy installs its own OnFault in its Attach.
}

// handler is set per-policy in attach wrappers; faultBase keeps the
// field so subtypes can supply their own OnFault.
type faultHandlerFunc func(p memsim.PageID, t memsim.TierID, write bool, now int64)

func (fn faultHandlerFunc) OnFault(p memsim.PageID, t memsim.TierID, write bool, now int64) {
	fn(p, t, write, now)
}

// advanceScanner poisons the next window of the address space.
func (f *faultBase) advanceScanner() {
	window := f.m.NumPages()/faultScanDivisor + 1
	f.scanCursor = f.m.PoisonRange(f.scanCursor, window)
	f.m.ChargeBackground(float64(window) * scanCostPerPageNs)
}

// enqueue marks a slow-tier page for promotion at the next tick.
func (f *faultBase) enqueue(p memsim.PageID) {
	if !f.queued[p] {
		f.queued[p] = true
		f.pending = append(f.pending, p)
	}
}

// drainPromotions promotes queued pages (hottest-queued first come,
// first served), demoting for headroom as needed, up to the per-tick
// migration quota.
func (f *faultBase) drainPromotions() int {
	n := 0
	for _, p := range f.pending {
		f.queued[p] = false
		if n >= f.migQuota {
			continue // stays unqueued; it can re-fault later
		}
		if f.m.TierOf(p) != memsim.Slow {
			continue
		}
		if f.m.FreePages(memsim.Fast) == 0 {
			f.demoteForHeadroom(1, 2)
		}
		if f.promote(p) {
			n++
		}
	}
	f.pending = f.pending[:0]
	return n
}

// decayFaults halves all fault counters (aging the frequency signal).
func (f *faultBase) decayFaults() {
	for i := range f.faultCnt {
		f.faultCnt[i] >>= 1
	}
}

// ---- AutoNUMA -------------------------------------------------------------

// AutoNUMA models the kernel's automatic NUMA balancing with memory
// tiering ("mostly frequently accessed", Table 1): a page is promoted
// after repeated hint faults (the two-fault filter), and cold fast-tier
// pages are demoted through the reclaim path. It adapts reliably to
// stable patterns but needs multiple scan windows to react to bursts of
// new hot pages — the paper's Figure 2 weakness on pattern S2.
type AutoNUMA struct {
	faultBase
	tick uint64
}

// NewAutoNUMA returns the AutoNUMA baseline.
func NewAutoNUMA() *AutoNUMA { return &AutoNUMA{} }

// Name implements Policy.
func (a *AutoNUMA) Name() string { return "AutoNUMA" }

// Attach implements Policy.
func (a *AutoNUMA) Attach(m *memsim.Machine) { a.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (a *AutoNUMA) AttachEnv(m memsim.Env) {
	a.attach(m)
	m.SetFaultHandler(faultHandlerFunc(a.onFault))
}

func (a *AutoNUMA) onFault(p memsim.PageID, t memsim.TierID, _ bool, _ int64) {
	if a.faultCnt[p] < 255 {
		a.faultCnt[p]++
	}
	// Two-fault rule: only repeatedly faulting slow pages are promoted.
	if t == memsim.Slow && a.faultCnt[p] >= 2 {
		a.enqueue(p)
	}
}

// Tick implements Policy.
func (a *AutoNUMA) Tick(now int64) {
	a.tick++
	a.advanceScanner()
	a.age()
	a.drainPromotions()
	// Reclaim-style demotion keeps a little allocation headroom.
	a.demoteForHeadroom(a.m.CapacityPages(memsim.Fast)/50+1, a.migQuota/4+1)
	if a.tick%24 == 0 {
		a.decayFaults()
	}
}

// ---- TPP -------------------------------------------------------------------

// TPP models Transparent Page Placement (Table 1: "lightweight demotion,
// decoupled allocation and reclamation paths"): faults on recently
// active slow-tier pages promote immediately, while a background
// watermark keeps the fast tier from filling up, so promotions never
// stall on reclaim. Strong on stable patterns; the eager promotion
// filter still needs the page to prove recency, so bursts of new hot
// pages are its weak spot.
type TPP struct {
	faultBase
	// firstFault records the tick of a slow page's previous fault; a
	// re-fault within the window passes TPP's promotion filter.
	lastFaultTick []uint32
	tick          uint32
}

// NewTPP returns the TPP baseline.
func NewTPP() *TPP { return &TPP{} }

// Name implements Policy.
func (t *TPP) Name() string { return "TPP" }

// Attach implements Policy.
func (t *TPP) Attach(m *memsim.Machine) { t.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (t *TPP) AttachEnv(m memsim.Env) {
	t.attach(m)
	t.lastFaultTick = make([]uint32, m.NumPages())
	m.SetFaultHandler(faultHandlerFunc(t.onFault))
}

func (t *TPP) onFault(p memsim.PageID, tier memsim.TierID, _ bool, _ int64) {
	if tier != memsim.Slow {
		return
	}
	// TPP's promotion filter: the page must be actively used, shown
	// either by LRU activity or by a recent prior fault.
	recent := t.lastFaultTick[p] != 0 && t.tick-t.lastFaultTick[p] <= 12
	t.lastFaultTick[p] = t.tick
	if recent || t.lists.ListOf(p) == lru.SlowActive {
		// Eager promotion: decoupled from reclaim, the watermark below
		// guarantees free pages, so promote right now.
		if t.m.FreePages(memsim.Fast) > 0 {
			t.promote(p)
		} else {
			t.enqueue(p)
		}
	}
}

// Tick implements Policy.
func (t *TPP) Tick(now int64) {
	t.tick++
	t.advanceScanner()
	t.age()
	t.drainPromotions()
	// Lightweight demotion: proactively maintain a free-page watermark
	// (TPP's decoupled reclaim) so allocation and promotion never block.
	head := t.m.CapacityPages(memsim.Fast)/25 + 1
	t.demoteForHeadroom(head, t.migQuota)
}

// ---- AutoTiering ------------------------------------------------------------

// AutoTiering models AutoTiering's OPM/CPM design (Table 1:
// "opportunistic promotion and migration"): the first hint fault on a
// slow-tier page promotes it immediately — exchanging it with the
// coldest fast-tier page when the fast tier is full. It reacts fastest
// of the fault group when hot and cold are easily distinguished, but
// warm data causes continuous swapping.
type AutoTiering struct {
	faultBase
	exchanges uint64
	// exchangeBudget bounds synchronous fault-path exchanges per tick
	// (AutoTiering rate-limits its migrations; unbounded access-path
	// copying would serialize the application behind page copies).
	exchangeBudget int
}

// NewAutoTiering returns the AutoTiering baseline.
func NewAutoTiering() *AutoTiering { return &AutoTiering{} }

// Name implements Policy.
func (a *AutoTiering) Name() string { return "AutoTiering" }

// Attach implements Policy.
func (a *AutoTiering) Attach(m *memsim.Machine) { a.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (a *AutoTiering) AttachEnv(m memsim.Env) {
	a.attach(m)
	m.SetFaultHandler(faultHandlerFunc(a.onFault))
}

func (a *AutoTiering) onFault(p memsim.PageID, tier memsim.TierID, _ bool, _ int64) {
	if a.faultCnt[p] < 255 {
		a.faultCnt[p]++
	}
	if tier != memsim.Slow {
		return
	}
	// Opportunistic promotion: act on the fault itself. The page copy is
	// synchronous — the faulting access waits for it (AutoTiering's OPM
	// runs on the access path, the cost the paper's Table 1 "warm data"
	// weakness stems from).
	if a.m.FreePages(memsim.Fast) > 0 {
		if a.m.MovePageSync(p, memsim.Fast) == nil {
			if a.lists.ListOf(p) == lru.SlowActive {
				a.lists.PushHead(lru.FastActive, p)
			} else {
				a.lists.PushHead(lru.FastInactive, p)
			}
		}
		return
	}
	// Exchange with the coldest fast page (tail of the inactive list).
	// AutoTiering sorts pages by NUMA fault counts (§3.1): the faulting
	// page swaps in unless the victim is strictly hotter — the
	// aggressiveness that wins on clearly-separated hot/cold data and
	// churns on warm data (Table 1). A per-tick budget bounds the churn:
	// AutoTiering rate-limits migration, and the first page copy of the
	// pair happens on the faulting access's critical path.
	if a.exchangeBudget <= 0 {
		return
	}
	victim := a.lists.Tail(lru.FastInactive)
	if victim == memsim.NoPage {
		victim = a.lists.Tail(lru.FastActive)
	}
	if victim == memsim.NoPage {
		return
	}
	if a.faultCnt[victim] > a.faultCnt[p] {
		return
	}
	a.exchangeBudget--
	// The incoming copy is synchronous (the access waits for its page);
	// the victim drains in the background.
	if a.m.MovePage(victim, memsim.Slow) != nil {
		return
	}
	a.lists.PushHead(lru.SlowInactive, victim)
	if a.m.MovePageSync(p, memsim.Fast) == nil {
		if a.lists.ListOf(p) == lru.SlowActive {
			a.lists.PushHead(lru.FastActive, p)
		} else {
			a.lists.PushHead(lru.FastInactive, p)
		}
		a.exchanges++
	}
}

// Tick implements Policy.
func (a *AutoTiering) Tick(now int64) {
	a.exchangeBudget = a.migQuota/2 + 1
	a.advanceScanner()
	a.age()
	a.drainPromotions()
	if now/DefaultTickInterval%24 == 0 {
		a.decayFaults()
	}
}

// ---- Tiering-0.8 -------------------------------------------------------------

// Tiering08 models the kernel tiering-0.8 development branch (Table 1:
// "reset hotness threshold once workload change"): promotion requires a
// page's fault count to pass a hotness threshold, and when the policy
// detects an access-pattern shift — the share of faults landing in the
// slow tier jumping — it resets its counters and threshold so stale
// frequency state cannot hold back the new working set.
type Tiering08 struct {
	faultBase
	threshold     uint8
	slowFaults    uint64
	totalFaults   uint64
	prevSlowShare float64
	resets        uint64
}

// NewTiering08 returns the Tiering-0.8 baseline.
func NewTiering08() *Tiering08 { return &Tiering08{threshold: 2} }

// Name implements Policy.
func (t *Tiering08) Name() string { return "Tiering-0.8" }

// Attach implements Policy.
func (t *Tiering08) Attach(m *memsim.Machine) { t.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (t *Tiering08) AttachEnv(m memsim.Env) {
	t.attach(m)
	m.SetFaultHandler(faultHandlerFunc(t.onFault))
}

func (t *Tiering08) onFault(p memsim.PageID, tier memsim.TierID, _ bool, _ int64) {
	t.totalFaults++
	if t.faultCnt[p] < 255 {
		t.faultCnt[p]++
	}
	if tier == memsim.Slow {
		t.slowFaults++
		if t.faultCnt[p] >= t.threshold {
			t.enqueue(p)
		}
	}
}

// Tick implements Policy.
func (t *Tiering08) Tick(now int64) {
	t.advanceScanner()
	t.age()
	// Workload-change detection: when the slow-tier share of faults
	// jumps versus the previous window, reset the frequency state.
	var share float64
	if t.totalFaults > 0 {
		share = float64(t.slowFaults) / float64(t.totalFaults)
	}
	if share > t.prevSlowShare+0.3 {
		for i := range t.faultCnt {
			t.faultCnt[i] = 0
		}
		t.threshold = 1 // fast-track the new working set
		t.resets++
	} else if t.threshold < 2 {
		t.threshold = 2
	}
	t.prevSlowShare = share
	t.slowFaults, t.totalFaults = 0, 0
	t.drainPromotions()
	t.demoteForHeadroom(t.m.CapacityPages(memsim.Fast)/50+1, t.migQuota/4+1)
}
