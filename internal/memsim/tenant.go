package memsim

import "fmt"

// TenantID identifies one tenant — the simulator's memory-cgroup
// analogue. Tenant 0 is the implicit owner of everything on machines
// that never call EnableTenants.
type TenantID uint16

// DefaultTenant is the tenant that owns all pages on a single-tenant
// machine.
const DefaultTenant TenantID = 0

// TenantCounters aggregates one tenant's observable activity — the
// per-memcg slice of Counters. AppNs additionally accumulates the
// application time the machine charged while the tenant was current,
// which is the per-tenant throughput denominator (accesses / AppNs).
type TenantCounters struct {
	FastAccesses uint64
	SlowAccesses uint64
	CacheHits    uint64
	AllocFast    uint64
	AllocSlow    uint64
	Promotions   uint64
	Demotions    uint64
	Faults       uint64
	AppNs        float64
}

// DRAMRatio returns the tenant's fast-tier share of cache-missing
// accesses, in [0,1]; 0 when there were none.
func (c TenantCounters) DRAMRatio() float64 {
	tot := c.FastAccesses + c.SlowAccesses
	if tot == 0 {
		return 0
	}
	return float64(c.FastAccesses) / float64(tot)
}

// tenantState holds all multi-tenant bookkeeping behind one nilable
// pointer, so single-tenant machines pay exactly one predictable
// branch per accounting site (the zero-cost requirement pinned by the
// AccessBatch benchmark).
type tenantState struct {
	// current is the tenant charged for accesses and first touches —
	// the "faulting task's cgroup". The runtime sets it before each
	// tenant's batch.
	current TenantID
	// owner tags every page with the tenant that first touched it.
	owner []TenantID
	// used counts resident pages per tenant per tier (the RSS split).
	used [][NumTiers]int
	// quota caps each tenant's fast-tier pages; 0 means unlimited.
	// Enforced on first touch and on promotion, never retroactively: a
	// quota lowered below current usage only gates new growth.
	quota []int
	ctr   []TenantCounters
}

// ErrTenantQuota is returned by MovePage when the page owner's
// fast-tier quota is exhausted. It wraps ErrTierFull so policies that
// stop their migration period on a full tier (errors.Is(err,
// ErrTierFull)) handle quota exhaustion the same way.
var ErrTenantQuota = fmt.Errorf("memsim: tenant fast-tier quota exhausted: %w", ErrTierFull)

// EnableTenants switches the machine into multi-tenant accounting with
// n tenants (IDs 0..n-1). It must be called on a fresh machine, before
// any page is allocated, and at most once; violations panic (tenancy
// is wired by the control plane at construction, so a late call is a
// programming error).
func (m *Machine) EnableTenants(n int) {
	if n < 1 {
		panic("memsim: EnableTenants needs at least one tenant")
	}
	if m.ts != nil {
		panic("memsim: tenants already enabled")
	}
	if m.ctr.AllocFast+m.ctr.AllocSlow != 0 {
		panic("memsim: EnableTenants after first allocation")
	}
	if m.nt != 2 || m.sh != nil {
		// Tenant RSS accounting is a fixed two-tier split and quotas
		// gate the fast tier only; composing tenancy with tier chains
		// or non-exclusive shadows is future work (see DESIGN.md §13).
		panic("memsim: tenancy requires the two-tier exclusive machine")
	}
	m.ts = &tenantState{
		owner: make([]TenantID, m.numPages),
		used:  make([][NumTiers]int, n),
		quota: make([]int, n),
		ctr:   make([]TenantCounters, n),
	}
}

// SetCurrentTenant sets the tenant charged for subsequent accesses and
// first-touch allocations — the analogue of which cgroup's task is on
// CPU. A no-op on single-tenant machines.
func (m *Machine) SetCurrentTenant(t TenantID) {
	if m.ts == nil {
		return
	}
	if int(t) >= len(m.ts.used) {
		panic(fmt.Sprintf("memsim: SetCurrentTenant(%d) with %d tenants", t, len(m.ts.used)))
	}
	m.ts.current = t
}

// OwnerOf returns the tenant that owns page p (first-touch ownership).
// DefaultTenant on single-tenant machines and for untouched pages.
func (m *Machine) OwnerOf(p PageID) TenantID {
	if m.ts == nil {
		return DefaultTenant
	}
	return m.ts.owner[p]
}

// SetFastQuota caps tenant t's fast-tier residency at pages (0 =
// unlimited). The arbiter adjusts quotas at run time; shrinking below
// current usage is legal and only gates new allocations/promotions.
func (m *Machine) SetFastQuota(t TenantID, pages int) {
	if m.ts == nil {
		panic("memsim: SetFastQuota without EnableTenants")
	}
	if pages < 0 {
		pages = 0
	}
	m.ts.quota[t] = pages
}

// FastQuota returns tenant t's fast-tier quota in pages (0 =
// unlimited).
func (m *Machine) FastQuota(t TenantID) int {
	if m.ts == nil {
		return 0
	}
	return m.ts.quota[t]
}

// TenantUsedPages returns tenant t's resident pages in the given tier.
// On single-tenant machines tenant 0 reports the machine totals.
func (m *Machine) TenantUsedPages(t TenantID, tier TierID) int {
	if m.ts == nil {
		if t == DefaultTenant {
			return m.used[tier]
		}
		return 0
	}
	return m.ts.used[t][tier]
}

// TenantCounters returns a snapshot of tenant t's cumulative counters.
// On single-tenant machines tenant 0 reports the machine-wide view.
func (m *Machine) TenantCounters(t TenantID) TenantCounters {
	if m.ts == nil {
		if t != DefaultTenant {
			return TenantCounters{}
		}
		c := m.ctr
		return TenantCounters{
			FastAccesses: c.FastAccesses,
			SlowAccesses: c.SlowAccesses,
			CacheHits:    c.CacheHits,
			AllocFast:    c.AllocFast,
			AllocSlow:    c.AllocSlow,
			Promotions:   c.Promotions,
			Demotions:    c.Demotions,
			Faults:       c.Faults,
			AppNs:        float64(m.clock),
		}
	}
	return m.ts.ctr[t]
}
