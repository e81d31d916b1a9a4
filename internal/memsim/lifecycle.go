package memsim

import (
	"fmt"

	"artmem/internal/telemetry"
)

// Page lifecycle primitives for tenant reclamation. A departing
// tenant's resident set is either drained (FreePage) or handed off to a
// surviving tenant (TransferPage); RestorePage is the exact inverse of
// FreePage so an interrupted reclamation can roll back and leave every
// accounting invariant intact. All three are control-plane operations —
// they never appear on the access hot path.

// ErrPageAllocated is returned by RestorePage when the target page is
// already resident (the slot was re-allocated between free and restore,
// which cannot happen inside one reclamation transaction).
var ErrPageAllocated = fmt.Errorf("memsim: page already allocated")

// FreePage unallocates page p: the page leaves its tier, its accessed,
// dirty, and poison state is cleared, and its cache lines are
// invalidated (a freed page does not arrive cache-hot for the next
// owner of the address range). The page's owner tag is deliberately
// left in place so RestorePage can undo the free with the original
// ownership; the tag is overwritten by the next first touch anyway.
func (m *Machine) FreePage(p PageID) error {
	if !m.allocated[p] {
		return ErrNotAllocated
	}
	t := m.tier[p]
	m.allocated[p] = false
	m.accessed[p] = false
	m.dirty[p] = false
	m.poisoned[p] = false
	m.used[t]--
	if m.sh != nil {
		// A freed page's shadow copy frees with it.
		if st, ok := m.sh.At(uint32(p)); ok {
			m.sh.Remove(uint32(p))
			m.used[st]--
		}
	}
	m.ctr.Freed++
	if m.ts != nil {
		m.ts.used[m.ts.owner[p]][t]--
	}
	lines := m.cfg.PageSize / 64
	if lines > 0 {
		m.cache.evictLines(uint64(p)*uint64(m.cfg.PageSize)>>6, lines)
	}
	if m.pageTrace.Sampled(uint64(p)) {
		m.pageTrace.Append(telemetry.PageEvent{
			TimeNs: m.clock,
			Page:   uint64(p),
			Kind:   telemetry.PageKindFree,
			Tier:   m.specs[t].Name,
		})
	}
	return nil
}

// RestorePage re-allocates page p into tier t, undoing a FreePage. The
// page returns to its pre-free owner (FreePage preserves the owner
// tag). It is strictly a rollback primitive: restoring a page that was
// never freed corrupts the Freed counter, so callers pair every
// RestorePage with exactly one preceding FreePage.
func (m *Machine) RestorePage(p PageID, t TierID) error {
	if m.allocated[p] {
		return ErrPageAllocated
	}
	if int(t) >= m.nt {
		return fmt.Errorf("memsim: RestorePage into invalid tier %d", t)
	}
	if m.used[t] >= m.cap[t] {
		return ErrTierFull
	}
	m.allocated[p] = true
	m.tier[p] = t
	m.used[t]++
	if m.ctr.Freed > 0 {
		m.ctr.Freed--
	}
	if m.ts != nil {
		m.ts.used[m.ts.owner[p]][t]++
	}
	return nil
}

// TransferPage hands ownership of page p to tenant `to` without moving
// it between tiers — the reclamation handoff path (a departing tenant's
// shared pages are re-charged to the inheriting tenant, the memcg
// recharging analogue). The inheritor may end up over its fast-tier
// quota; like a dynamic quota shrink, that only gates new growth and is
// not an invariant violation. Panics without EnableTenants (handoff is
// meaningless on a single-tenant machine).
func (m *Machine) TransferPage(p PageID, to TenantID) error {
	if m.ts == nil {
		panic("memsim: TransferPage without EnableTenants")
	}
	if int(to) >= len(m.ts.used) {
		panic(fmt.Sprintf("memsim: TransferPage to tenant %d with %d tenants", to, len(m.ts.used)))
	}
	if !m.allocated[p] {
		return ErrNotAllocated
	}
	from := m.ts.owner[p]
	if from == to {
		return nil
	}
	t := m.tier[p]
	m.ts.used[from][t]--
	m.ts.used[to][t]++
	m.ts.owner[p] = to
	return nil
}

// ResetTenant clears tenant t's counters and quota so its slot can be
// reused by a future registration. It refuses while the tenant still
// owns resident pages — reclamation must finish first. Stale owner tags
// on freed pages are fine: only allocated pages have meaningful owners.
func (m *Machine) ResetTenant(t TenantID) error {
	if m.ts == nil {
		panic("memsim: ResetTenant without EnableTenants")
	}
	if int(t) >= len(m.ts.used) {
		panic(fmt.Sprintf("memsim: ResetTenant(%d) with %d tenants", t, len(m.ts.used)))
	}
	for tier := TierID(0); tier < NumTiers; tier++ {
		if m.ts.used[t][tier] != 0 {
			return fmt.Errorf("memsim: ResetTenant(%d): tenant still owns %d %s pages",
				t, m.ts.used[t][tier], tier)
		}
	}
	m.ts.ctr[t] = TenantCounters{}
	m.ts.quota[t] = 0
	return nil
}

// ReadCostNs returns the model cost of a cache-missing read served by
// tier t. Together with Config().CacheHitNs and the per-tenant access
// counters this reconstructs a tenant's read-latency distribution
// without any per-access bookkeeping (the same five-constant-costs
// property AccessLatencyData exploits machine-wide).
func (m *Machine) ReadCostNs(t TierID) float64 { return m.readCostNs[t] }
