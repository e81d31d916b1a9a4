// Package policies implements the tiering policy framework and the seven
// state-of-the-art baselines the paper compares against (Table 1):
// Static (no migration), AutoNUMA, TPP, AutoTiering, Tiering-0.8,
// Multi-clock, Nimble, and MEMTIS. ArtMem itself lives in internal/core.
//
// Each baseline is a faithful behavioural model of the original system's
// *key design* — the mechanism Table 1 credits it with — driven only by
// the signals its real counterpart can see: NUMA-hint faults for the
// fault-driven group (AutoNUMA, TPP, AutoTiering, Tiering-0.8),
// accessed-bit scanning for the CLOCK group (Multi-clock, Nimble), and
// PEBS sampling for MEMTIS. The models are simplified (no THP splitting,
// no per-cgroup accounting) but reproduce the workload-dependent
// strengths and weaknesses the paper's motivation study observes.
package policies

import (
	"fmt"
	"sort"

	"artmem/internal/lru"
	"artmem/internal/memsim"
)

// Policy is a tiered-memory management policy. The harness attaches it
// to a machine, then calls Tick on the policy's interval in virtual
// time. Policies are single-use: one Attach, one run.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Attach binds the policy to the machine before the run starts,
	// installing whatever hooks (sampler, fault handler, alloc hook) the
	// policy's real counterpart relies on.
	Attach(m *memsim.Machine)
	// Interval returns the desired virtual time between Tick calls.
	Interval() int64
	// Tick runs the policy's periodic work (scanning, aging, deciding
	// and executing migrations) at virtual time now.
	Tick(now int64)
}

// EnvPolicy is implemented by policies that can also attach to a
// tenant-scoped machine view (memsim.Env) instead of a whole machine —
// the per-tenant baseline mode of the multi-tenant control plane
// (internal/tenancy). Every baseline in this package implements it;
// Attach(m) is equivalent to AttachEnv(m).
type EnvPolicy interface {
	Policy
	// AttachEnv binds the policy to an arbitrary machine surface.
	AttachEnv(e memsim.Env)
}

// Factory constructs a fresh policy instance for one run.
type Factory struct {
	Name string
	New  func() Policy
}

// Baselines returns factories for the seven comparison systems, in the
// paper's Table 1 order plus the static baseline used for normalization
// in Figure 2.
func Baselines() []Factory {
	return []Factory{
		{Name: "Static", New: func() Policy { return NewStatic() }},
		{Name: "MEMTIS", New: func() Policy { return NewMEMTIS(MEMTISConfig{}) }},
		{Name: "AutoTiering", New: func() Policy { return NewAutoTiering() }},
		{Name: "TPP", New: func() Policy { return NewTPP() }},
		{Name: "AutoNUMA", New: func() Policy { return NewAutoNUMA() }},
		{Name: "Multi-clock", New: func() Policy { return NewMultiClock() }},
		{Name: "Nimble", New: func() Policy { return NewNimble() }},
		{Name: "Tiering-0.8", New: func() Policy { return NewTiering08() }},
	}
}

// ByName returns the factory with the given name.
func ByName(name string) (Factory, error) {
	for _, f := range Baselines() {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("policies: unknown policy %q", name)
}

// DefaultTickInterval is the policies' periodic-work cadence in virtual
// nanoseconds. The paper's systems run their daemons on 1–10s periods
// against runs of many minutes; scaled to our second-long simulations
// this corresponds to ~10ms.
const DefaultTickInterval = 10_000_000 // 10ms

// base carries the machinery shared by every baseline: the machine
// surface (a whole machine or a tenant view), the per-tier
// active/inactive LRU lists maintained from accessed bits, and
// rate-limit bookkeeping.
type base struct {
	m     memsim.Env
	lists *lru.PageLists
	// scanQuota is the number of pages inspected per aging pass and per
	// accessed-bit scan, derived from the footprint.
	scanQuota int
	// migQuota caps pages migrated per tick.
	migQuota int
}

func (b *base) attach(m memsim.Env) {
	b.m = m
	b.lists = lru.New(m.NumPages())
	m.SetAllocHook(func(p memsim.PageID, t memsim.TierID) {
		// New pages start on their tier's active list, as in Linux
		// (first touch implies recency).
		b.lists.PushHead(lru.ActiveOf(t), p)
	})
	if b.scanQuota == 0 {
		b.scanQuota = m.NumPages()/4 + 1
	}
	if b.migQuota == 0 {
		b.migQuota = m.NumPages()/32 + 1
	}
}

// Interval implements Policy: every baseline but MEMTIS, whose period
// is configurable, works on DefaultTickInterval.
func (b *base) Interval() int64 { return DefaultTickInterval }

// age runs one second-chance aging pass over both tiers using the page
// table's accessed bits, charging the scan to background CPU.
func (b *base) age() {
	b.lists.Age(memsim.Fast, b.scanQuota, b.m.TestAndClearAccessed)
	b.lists.Age(memsim.Slow, b.scanQuota, b.m.TestAndClearAccessed)
	b.m.ChargeBackground(float64(b.scanQuota) * 4 * scanCostPerPageNs)
}

const scanCostPerPageNs = 15

// demoteForHeadroom demotes pages from the fast tier's inactive tail
// until at least want pages are free, or the demotion budget is
// exhausted. It never evicts active pages: reclaim-style demotion is
// "lightweight" — it only moves pages that have demonstrably gone cold.
// When the whole fast tier is actively used (pattern S4's oversized hot
// set), demotion stalls rather than thrashing, which is precisely the
// behaviour that gives AutoNUMA and TPP their S4 advantage (§3.1). It
// returns pages freed.
func (b *base) demoteForHeadroom(want, budget int) int {
	freed := 0
	for b.m.FreePages(memsim.Fast) < want && freed < budget {
		victim := b.lists.Tail(lru.FastInactive)
		if victim == memsim.NoPage {
			break
		}
		if err := b.m.MovePage(victim, memsim.Slow); err != nil {
			break
		}
		// Conservative status transfer (the default in Linux and prior
		// systems): the demoted page keeps its (inactive) activity level.
		b.lists.PushHead(lru.SlowInactive, victim)
		freed++
	}
	return freed
}

// promote moves page p to the fast tier, conservatively preserving its
// activity status (the behaviour ArtMem's page sorting deliberately
// replaces with head-of-active insertion). Returns false when the fast
// tier is full.
func (b *base) promote(p memsim.PageID) bool {
	if b.m.TierOf(p) == memsim.Fast {
		return true
	}
	if err := b.m.MovePage(p, memsim.Fast); err != nil {
		return false
	}
	if b.lists.ListOf(p) == lru.SlowActive {
		b.lists.PushHead(lru.FastActive, p)
	} else {
		b.lists.PushHead(lru.FastInactive, p)
	}
	return true
}

// hottestPages returns up to n allocated slow-tier pages sorted by the
// score function, hottest first, skipping pages scoring below min.
func (b *base) hottestPages(n int, min uint32, score func(memsim.PageID) uint32) []memsim.PageID {
	type scored struct {
		p memsim.PageID
		s uint32
	}
	var cands []scored
	for p := 0; p < b.m.NumPages(); p++ {
		pid := memsim.PageID(p)
		if !b.m.Allocated(pid) || b.m.TierOf(pid) != memsim.Slow {
			continue
		}
		if s := score(pid); s >= min {
			cands = append(cands, scored{pid, s})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].s > cands[j].s })
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]memsim.PageID, len(cands))
	for i, c := range cands {
		out[i] = c.p
	}
	return out
}

// Static is the no-migration baseline: pages stay wherever first touch
// placed them. Figure 2 normalizes the synthetic-pattern results to it.
type Static struct{ base }

// NewStatic returns the static policy.
func NewStatic() *Static { return &Static{} }

// Name implements Policy.
func (s *Static) Name() string { return "Static" }

// Attach implements Policy.
func (s *Static) Attach(m *memsim.Machine) { s.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (s *Static) AttachEnv(e memsim.Env) { s.attach(e) }

// Tick implements Policy: nothing to do.
func (s *Static) Tick(now int64) {}
