package memsim

import (
	"fmt"

	"artmem/internal/telemetry"
	"artmem/internal/tier"
)

// Boundary decomposition: an N-tier chain machine is presented to
// two-tier policies as N-1 independent Env views, one per adjacent tier
// pair. View b ("boundary b") sees tier b as its fast tier and tier b+1
// as its slow tier; everything at or above b maps to Fast, everything
// below to Slow. A BoundaryHub owns the machine's sampler, fault, and
// alloc hooks and demuxes each event to the (at most two) boundaries
// that can see its tier — the same shape tenancy's demux gives
// per-tenant agents. See DESIGN.md §13.

// ErrNotInBoundary is returned by a BoundaryView's MovePage when the
// page does not currently reside on the source side of the boundary —
// a sibling boundary agent moved it since the caller last saw it. It is
// non-transient and does not wrap ErrTierFull: policies skip the page
// and move on, exactly how they treat a stale candidate.
var ErrNotInBoundary = fmt.Errorf("memsim: page not resident on this side of the tier boundary")

// ErrBoundaryBudget is returned by a BoundaryView's MovePage when the
// boundary's per-period migration budget is exhausted. It wraps
// ErrTierFull so budget exhaustion ends a policy's migration period the
// same way a full destination tier does.
var ErrBoundaryBudget = fmt.Errorf("memsim: boundary migration budget exhausted: %w", ErrTierFull)

// BoundaryHub demuxes one chain machine's signal hooks onto per-
// boundary views. Construct it, take View(b) for each boundary, and
// attach one two-tier policy per view; the hub installs itself as the
// machine's sampler/fault/alloc hook. Optional per-boundary budgets
// (SetBudgets) meter MovePage calls through the views.
//
// The hub is as thread-safe as its machine: hooks fire on the access
// path, so whoever serializes Access serializes the hub.
type BoundaryHub struct {
	m        *Machine
	nb       int
	samplers []Sampler
	faults   []FaultHandler
	allocs   []func(PageID, TierID)
	budgets  *tier.Budgets
}

// NewBoundaryHub builds a hub over m and installs its demux hooks.
func NewBoundaryHub(m *Machine) *BoundaryHub {
	nb := m.NumBoundaries()
	h := &BoundaryHub{
		m:        m,
		nb:       nb,
		samplers: make([]Sampler, nb),
		faults:   make([]FaultHandler, nb),
		allocs:   make([]func(PageID, TierID), nb),
	}
	m.SetSampler(hubSampler{h})
	m.SetFaultHandler(hubFaults{h})
	m.SetAllocHook(h.onAlloc)
	return h
}

// NumBoundaries returns the number of boundary views the hub serves.
func (h *BoundaryHub) NumBoundaries() int { return h.nb }

// SetBudgets installs per-boundary migration budgets consulted by every
// view MovePage/MovePageSync (nil to remove). The caller refills them
// per period (Budgets.Reset); the hub only spends.
func (h *BoundaryHub) SetBudgets(b *tier.Budgets) {
	if b != nil && b.Boundaries() != h.nb {
		panic(fmt.Sprintf("memsim: budgets for %d boundaries on a %d-boundary hub",
			b.Boundaries(), h.nb))
	}
	h.budgets = b
}

// View returns boundary b's two-tier Env (tier b = Fast, b+1 = Slow).
func (h *BoundaryHub) View(b int) *BoundaryView {
	if b < 0 || b >= h.nb {
		panic(fmt.Sprintf("memsim: boundary %d of %d", b, h.nb))
	}
	base := h.m.Config()
	base.Chain = tier.Chain{h.m.TierSpecAt(TierID(b)), h.m.TierSpecAt(TierID(b + 1))}
	base.NonExclusive = false
	return &BoundaryView{m: h.m, hub: h, lo: TierID(b), cfg: base}
}

// An event in tier t is visible to boundary t-1 (as its slow side) and
// boundary t (as its fast side); delivery is in ascending boundary
// order, deterministically.

type hubSampler struct{ h *BoundaryHub }

func (s hubSampler) OnMiss(p PageID, t TierID, write bool, now int64) {
	h := s.h
	if t > 0 && h.samplers[t-1] != nil {
		h.samplers[t-1].OnMiss(p, Slow, write, now)
	}
	if int(t) < h.nb && h.samplers[t] != nil {
		h.samplers[t].OnMiss(p, Fast, write, now)
	}
}

type hubFaults struct{ h *BoundaryHub }

func (f hubFaults) OnFault(p PageID, t TierID, write bool, now int64) {
	h := f.h
	if t > 0 && h.faults[t-1] != nil {
		h.faults[t-1].OnFault(p, Slow, write, now)
	}
	if int(t) < h.nb && h.faults[t] != nil {
		h.faults[t].OnFault(p, Fast, write, now)
	}
}

func (h *BoundaryHub) onAlloc(p PageID, t TierID) {
	if t > 0 && h.allocs[t-1] != nil {
		h.allocs[t-1](p, Slow)
	}
	if int(t) < h.nb && h.allocs[t] != nil {
		h.allocs[t](p, Fast)
	}
}

// BoundaryView adapts one tier boundary of a chain machine to the
// two-tier Env surface. Policies written against Env (ArtMem, the
// baselines) run on it unchanged; stale candidates that a sibling
// boundary moved away are refused with ErrNotInBoundary.
type BoundaryView struct {
	m   *Machine
	hub *BoundaryHub
	lo  TierID // the boundary's fast side; slow side is lo+1
	cfg Config // synthesized two-tier view of the pair
}

// Config returns a two-tier Config describing the boundary's tier pair
// (latency, bandwidth, and capacity of tiers lo and lo+1).
func (v *BoundaryView) Config() Config { return v.cfg }

// NumPages returns the machine's full page space: page IDs are global.
func (v *BoundaryView) NumPages() int { return v.m.NumPages() }

// PageSize returns the page size in bytes.
func (v *BoundaryView) PageSize() int64 { return v.m.PageSize() }

// Now returns the machine's virtual clock.
func (v *BoundaryView) Now() int64 { return v.m.Now() }

// Counters reports the boundary's share of machine activity: accesses
// served by its two tiers, migrations crossing it. Machine-global
// counters with no per-boundary attribution (cache hits, faults,
// allocations) are reported as seen machine-wide.
func (v *BoundaryView) Counters() Counters {
	mc := v.m.Counters()
	bs := v.m.BoundaryStatsAt(int(v.lo))
	return Counters{
		FastAccesses:      v.m.TierAccesses(v.lo),
		SlowAccesses:      v.m.TierAccesses(v.lo + 1),
		CacheHits:         mc.CacheHits,
		Migrations:        bs.Promotions + bs.Demotions,
		Promotions:        bs.Promotions,
		Demotions:         bs.Demotions,
		ShadowDiscards:    bs.ShadowDiscards,
		Faults:            mc.Faults,
		MigrationFailures: mc.MigrationFailures,
		AllocFast:         mc.AllocFast,
		AllocSlow:         mc.AllocSlow,
		Freed:             mc.Freed,
		MigratedBytes:     (bs.Promotions + bs.Demotions - bs.ShadowDiscards) * uint64(v.m.PageSize()),
		MigrationStallNs:  mc.MigrationStallNs,
	}
}

// TierOf maps the page's chain tier onto the boundary's two-tier view:
// at or above the fast side reports Fast, below reports Slow.
func (v *BoundaryView) TierOf(p PageID) TierID {
	if v.m.TierOf(p) <= v.lo {
		return Fast
	}
	return Slow
}

// Allocated reports whether the page has been first-touched.
func (v *BoundaryView) Allocated(p PageID) bool { return v.m.Allocated(p) }

// UsedPages reports resident pages of the boundary's tier pair
// (Fast = tier lo, Slow = tier lo+1).
func (v *BoundaryView) UsedPages(t TierID) int { return v.m.UsedPages(v.global(t)) }

// FreePages reports free frames of the boundary's tier pair.
func (v *BoundaryView) FreePages(t TierID) int { return v.m.FreePages(v.global(t)) }

// CapacityPages reports the capacity of the boundary's tier pair.
func (v *BoundaryView) CapacityPages(t TierID) int { return v.m.CapacityPages(v.global(t)) }

func (v *BoundaryView) global(t TierID) TierID {
	if t == Fast {
		return v.lo
	}
	return v.lo + 1
}

// MovePage migrates p across the boundary on the background path. The
// page must reside on the source side (ErrNotInBoundary otherwise), and
// installed budgets must have room (ErrBoundaryBudget otherwise).
func (v *BoundaryView) MovePage(p PageID, dst TierID) error {
	return v.move(p, dst, false)
}

// MovePageSync migrates p across the boundary on the critical path.
func (v *BoundaryView) MovePageSync(p PageID, dst TierID) error {
	return v.move(p, dst, true)
}

func (v *BoundaryView) move(p PageID, dst TierID, sync bool) error {
	cur := v.m.TierOf(p)
	var want, to TierID
	if dst == Fast {
		want, to = v.lo+1, v.lo
	} else {
		want, to = v.lo, v.lo+1
	}
	if cur != want {
		if cur == to {
			// Already where the caller wants it: a no-op, like
			// Machine.MovePage onto the current tier.
			return nil
		}
		return ErrNotInBoundary
	}
	if b := v.hub.budgets; b != nil && !b.Take(int(v.lo)) {
		return ErrBoundaryBudget
	}
	if sync {
		return v.m.MovePageSync(p, to)
	}
	return v.m.MovePage(p, to)
}

// ChargeBackground adds non-application CPU time to the machine.
func (v *BoundaryView) ChargeBackground(ns float64) { v.m.ChargeBackground(ns) }

// TestAndClearAccessed reads and clears the page's accessed bit.
func (v *BoundaryView) TestAndClearAccessed(p PageID) bool { return v.m.TestAndClearAccessed(p) }

// PoisonPage arms a NUMA-hint fault on one page, machine-wide.
func (v *BoundaryView) PoisonPage(p PageID) { v.m.PoisonPage(p) }

// PoisonRange arms NUMA-hint faults over a wrapping page window,
// machine-wide.
func (v *BoundaryView) PoisonRange(start PageID, n int) PageID {
	return v.m.PoisonRange(start, n)
}

// SetSampler registers the boundary's sampler with the hub demux.
func (v *BoundaryView) SetSampler(s Sampler) { v.hub.samplers[v.lo] = s }

// SetFaultHandler registers the boundary's fault handler with the hub.
func (v *BoundaryView) SetFaultHandler(h FaultHandler) { v.hub.faults[v.lo] = h }

// SetAllocHook registers the boundary's alloc hook with the hub. The
// hook sees allocations into either of the boundary's tiers, with the
// tier mapped to the two-tier view.
func (v *BoundaryView) SetAllocHook(h func(PageID, TierID)) { v.hub.allocs[v.lo] = h }

// SetPageTrace installs a machine-wide page trace.
func (v *BoundaryView) SetPageTrace(pt *telemetry.PageTrace) { v.m.SetPageTrace(pt) }

// FaultInjector returns the machine's chaos injector, or nil.
func (v *BoundaryView) FaultInjector() FaultInjector { return v.m.FaultInjector() }

var _ Env = (*BoundaryView)(nil)
