// Package tenancy is the multi-tenant control plane: it turns one
// memsim.Machine into N memcg-analogue tenants, each with first-touch
// page ownership, its own RSS accounting, its own signal streams (PEBS
// samples, NUMA-hint faults, allocation events routed by a demux), and
// its own tiering policy attached through a tenant-scoped machine view
// (TenantView, a memsim.Env). A global fast-tier Arbiter partitions
// DRAM between the tenants via per-tenant page quotas — static
// weighted shares, or a dynamic mode that reallocates quota along the
// observed hit-ratio gradient — and applies TierBPF-style migration
// admission control so one tenant's promotion traffic cannot monopolize
// the shared migration bandwidth. DESIGN.md §8 documents the model.
//
// The plane is built over a fixed number of *slots* (the machine's
// tenant IDs) through which tenants cycle: Register claims an empty
// slot, Deregister drains or hands off the departing tenant's pages in
// a transactional reclamation and returns the slot to the pool.
// DESIGN.md §9 documents the lifecycle state machine.
//
// Nothing in this package is safe for concurrent use; the online
// runtime (core.MultiSystem) serializes all machine, plane, and view
// calls under one lock, and the offline runner (harness.RunTenants /
// RunChurn) is single-threaded by construction.
package tenancy

import (
	"fmt"

	"artmem/internal/memsim"
)

// Tenant describes one tenant of the control plane.
type Tenant struct {
	// Name labels the tenant in reports, telemetry, and endpoints.
	Name string
	// Weight is the tenant's share of the fast tier and of the
	// migration bandwidth budget, relative to the other tenants'
	// weights; 0 means 1.
	Weight int
	// Class is the tenant's SLO class (default ClassBatch).
	Class SLOClass
}

// Plane owns the machine-side tenancy wiring: it enables per-tenant
// accounting on the machine, installs the signal demux, builds the
// arbiter, and hands out tenant views for policies to attach to.
type Plane struct {
	m        *memsim.Machine
	capacity int
	slots    []slotState
	active   []int // active slot ids, ascending
	arb      *Arbiter
	dx       *demux
	views    []*TenantView
	stats    LifecycleStats
	// arrivalTokens is the registration backpressure budget for the
	// current control period (refilled by BeginPeriod); -1 when
	// MaxArrivalsPerPeriod is 0 (unlimited).
	arrivalTokens int
	// pendingHandoff remembers each draining slot's handoff target so
	// an interrupted reclamation can be retried (RetryDrains).
	pendingHandoff []int
}

type slotState struct {
	t     Tenant
	state TenantState
}

// NewPlane wires tenants onto a fresh machine (no pages allocated yet;
// memsim panics otherwise) and partitions the fast tier per acfg. The
// plane installs the machine's sampler, fault-handler, and alloc
// hooks; per-tenant policies must install theirs through the views,
// not on the machine directly. The plane's capacity equals the initial
// tenant count — a fixed-membership plane; use NewDynamicPlane for a
// plane tenants churn through.
func NewPlane(m *memsim.Machine, tenants []Tenant, acfg ArbiterConfig) *Plane {
	if len(tenants) == 0 {
		panic("tenancy: NewPlane needs at least one tenant")
	}
	p := NewDynamicPlane(m, len(tenants), acfg)
	for _, t := range tenants {
		if _, err := p.Register(t); err != nil {
			panic(fmt.Sprintf("tenancy: NewPlane registration failed: %v", err))
		}
	}
	return p
}

// NewDynamicPlane wires an empty plane with the given slot capacity
// onto a fresh machine. Tenants join through Register and leave
// through Deregister; the machine's per-tenant arrays are sized once,
// here, so capacity is fixed for the plane's lifetime. Initial
// registrations (before the first BeginPeriod) are exempt from arrival
// backpressure: the plane starts with one arrival token per slot.
func NewDynamicPlane(m *memsim.Machine, capacity int, acfg ArbiterConfig) *Plane {
	if capacity < 1 {
		panic("tenancy: NewDynamicPlane needs capacity >= 1")
	}
	m.EnableTenants(capacity)
	dx := newDemux(m, capacity)
	m.SetSampler(dx)
	m.SetFaultHandler(dx)
	m.SetAllocHook(dx.onAlloc)
	p := &Plane{
		m:              m,
		capacity:       capacity,
		slots:          make([]slotState, capacity),
		arb:            newArbiter(m, capacity, acfg),
		dx:             dx,
		views:          make([]*TenantView, capacity),
		arrivalTokens:  capacity,
		pendingHandoff: make([]int, capacity),
	}
	for i := range p.views {
		p.views[i] = &TenantView{plane: p, m: m, id: memsim.TenantID(i)}
	}
	return p
}

// Capacity returns the plane's slot count — the maximum number of
// concurrently registered tenants.
func (p *Plane) Capacity() int { return p.capacity }

// ActiveTenants returns the number of slots in StateActive.
func (p *Plane) ActiveTenants() int { return len(p.active) }

// Tenant returns slot i's tenant descriptor (the zero Tenant for an
// empty slot; draining slots keep their descriptor until reclamation
// completes).
func (p *Plane) Tenant(i int) Tenant { return p.slots[i].t }

// State returns slot i's lifecycle state.
func (p *Plane) State(i int) TenantState { return p.slots[i].state }

// View returns slot i's machine view, the memsim.Env its policy
// attaches to.
func (p *Plane) View(i int) *TenantView { return p.views[i] }

// Arbiter returns the fast-tier arbiter.
func (p *Plane) Arbiter() *Arbiter { return p.arb }

// Stats returns a snapshot of the plane's lifecycle counters.
func (p *Plane) Stats() LifecycleStats { return p.stats }

// BeginPeriod starts one control period: it refills the registration
// backpressure tokens and the arbiter's per-tenant migration admission
// budgets and, in dynamic mode, runs a quota rebalance when due. The
// control loop calls it once per migration period, before ticking the
// tenant policies. O(active tenants).
func (p *Plane) BeginPeriod() {
	if max := p.arb.cfg.MaxArrivalsPerPeriod; max > 0 {
		p.arrivalTokens = max
	} else {
		p.arrivalTokens = -1
	}
	p.arb.beginPeriod()
}
