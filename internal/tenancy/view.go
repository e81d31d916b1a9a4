package tenancy

import (
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
)

// TenantView is one tenant's scoped window onto the shared machine. It
// implements memsim.Env, so any Env-attaching policy (core.ArtMem via
// AttachEnv, every policies baseline via EnvPolicy) runs against it
// unmodified while seeing only the tenant's world:
//
//   - Allocated reports only pages the tenant owns, which scopes every
//     page-scanning policy loop to the tenant's resident set;
//   - Fast-tier capacity and free space reflect the tenant's arbiter
//     quota, not the whole machine;
//   - MovePage promotions pass through the arbiter's admission control
//     and quota (denials wrap memsim.ErrTierFull, which policies
//     already treat as "stop this period");
//   - hook installation registers with the plane's demux, so the
//     policy's sampler and fault handler receive only events on the
//     tenant's pages;
//   - Counters reports the tenant's slice of the machine counters.
type TenantView struct {
	plane *Plane
	m     *memsim.Machine
	id    memsim.TenantID
}

var _ memsim.Env = (*TenantView)(nil)

// Config implements memsim.Env.
func (v *TenantView) Config() memsim.Config { return v.m.Config() }

// NumPages implements memsim.Env: the machine's full page space (page
// IDs are global; ownership, not index range, scopes the tenant).
func (v *TenantView) NumPages() int { return v.m.NumPages() }

// PageSize implements memsim.Env.
func (v *TenantView) PageSize() int64 { return v.m.PageSize() }

// Now implements memsim.Env.
func (v *TenantView) Now() int64 { return v.m.Now() }

// Counters implements memsim.Env: the tenant's share of the machine
// counters (Migrations is the tenant's promotions + demotions).
func (v *TenantView) Counters() memsim.Counters {
	tc := v.m.TenantCounters(v.id)
	return memsim.Counters{
		FastAccesses: tc.FastAccesses,
		SlowAccesses: tc.SlowAccesses,
		CacheHits:    tc.CacheHits,
		Migrations:   tc.Promotions + tc.Demotions,
		Promotions:   tc.Promotions,
		Demotions:    tc.Demotions,
		MigratedBytes: (tc.Promotions + tc.Demotions) *
			uint64(v.m.PageSize()),
		Faults:    tc.Faults,
		AllocFast: tc.AllocFast,
		AllocSlow: tc.AllocSlow,
	}
}

// TierOf implements memsim.Env.
func (v *TenantView) TierOf(p memsim.PageID) memsim.TierID { return v.m.TierOf(p) }

// Allocated implements memsim.Env, scoped to ownership: a page another
// tenant owns reads as unallocated, which keeps every "skip
// unallocated pages" policy loop inside the tenant's resident set.
func (v *TenantView) Allocated(p memsim.PageID) bool {
	return v.m.Allocated(p) && v.m.OwnerOf(p) == v.id
}

// UsedPages implements memsim.Env: the tenant's resident pages.
func (v *TenantView) UsedPages(t memsim.TierID) int {
	return v.m.TenantUsedPages(v.id, t)
}

// FreePages implements memsim.Env. For the fast tier it is the
// headroom under both the tenant's quota and the machine's physical
// capacity; the slow tier is shared.
func (v *TenantView) FreePages(t memsim.TierID) int {
	free := v.m.FreePages(t)
	if t != memsim.Fast {
		return free
	}
	if q := v.m.FastQuota(v.id); q > 0 {
		if headroom := q - v.m.TenantUsedPages(v.id, memsim.Fast); headroom < free {
			free = headroom
		}
	}
	if free < 0 {
		// Over quota after a dynamic shrink: no headroom, not negative.
		free = 0
	}
	return free
}

// CapacityPages implements memsim.Env: the tenant's quota for the fast
// tier when one is set, the machine capacity otherwise.
func (v *TenantView) CapacityPages(t memsim.TierID) int {
	if t == memsim.Fast {
		if q := v.m.FastQuota(v.id); q > 0 {
			return q
		}
	}
	return v.m.CapacityPages(t)
}

// MovePage implements memsim.Env. Promotions pass through the
// arbiter's admission control first; a page the tenant does not own
// cannot be migrated and reports memsim.ErrNotAllocated.
func (v *TenantView) MovePage(p memsim.PageID, dst memsim.TierID) error {
	if err := v.admit(p, dst); err != nil {
		return err
	}
	return v.m.MovePage(p, dst)
}

// MovePageSync implements memsim.Env; admission as MovePage.
func (v *TenantView) MovePageSync(p memsim.PageID, dst memsim.TierID) error {
	if err := v.admit(p, dst); err != nil {
		return err
	}
	return v.m.MovePageSync(p, dst)
}

func (v *TenantView) admit(p memsim.PageID, dst memsim.TierID) error {
	if v.m.OwnerOf(p) != v.id || !v.m.Allocated(p) {
		return memsim.ErrNotAllocated
	}
	if dst == memsim.Fast {
		return v.plane.arb.admitPromotion(v.id)
	}
	return nil
}

// ChargeBackground implements memsim.Env.
func (v *TenantView) ChargeBackground(ns float64) { v.m.ChargeBackground(ns) }

// TestAndClearAccessed implements memsim.Env. Callers reach pages via
// Allocated or their tenant-scoped LRU lists, so the bit they clear is
// always their own page's.
func (v *TenantView) TestAndClearAccessed(p memsim.PageID) bool {
	return v.m.TestAndClearAccessed(p)
}

// PoisonPage implements memsim.Env: arms only pages the tenant owns.
func (v *TenantView) PoisonPage(p memsim.PageID) {
	if v.m.Allocated(p) && v.m.OwnerOf(p) == v.id {
		v.m.PoisonPage(p)
	}
}

// PoisonRange implements memsim.Env: walks the same wrapping window as
// the machine's PoisonRange but arms only the tenant's pages, so a
// fault-driven tenant policy never faults another tenant's accesses.
// The cursor advances over the full window regardless, preserving the
// scanner's coverage cadence.
func (v *TenantView) PoisonRange(start memsim.PageID, n int) memsim.PageID {
	p := uint64(start)
	np := uint64(v.m.NumPages())
	for i := 0; i < n; i++ {
		pid := memsim.PageID(p % np)
		if v.m.Allocated(pid) && v.m.OwnerOf(pid) == v.id {
			v.m.PoisonPage(pid)
		}
		p++
	}
	return memsim.PageID(p % np)
}

// SetSampler implements memsim.Env: registers with the demux so the
// sampler sees only the tenant's cache misses.
func (v *TenantView) SetSampler(s memsim.Sampler) { v.plane.dx.samplers[v.id] = s }

// SetFaultHandler implements memsim.Env: registers with the demux.
func (v *TenantView) SetFaultHandler(h memsim.FaultHandler) { v.plane.dx.faults[v.id] = h }

// SetAllocHook implements memsim.Env: registers with the demux; the
// hook fires for first touches of the tenant's pages only.
func (v *TenantView) SetAllocHook(h func(memsim.PageID, memsim.TierID)) {
	v.plane.dx.allocs[v.id] = h
}

// SetPageTrace implements memsim.Env as a no-op: page-lifecycle
// tracing is a machine-wide facility configured on the machine by the
// runtime, not per tenant.
func (v *TenantView) SetPageTrace(pt *telemetry.PageTrace) {}

// FaultInjector implements memsim.Env: the machine's chaos injector is
// shared — injected infrastructure faults hit every tenant.
func (v *TenantView) FaultInjector() memsim.FaultInjector { return v.m.FaultInjector() }
