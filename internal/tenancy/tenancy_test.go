package tenancy

import (
	"errors"
	"reflect"
	"testing"

	"artmem/internal/memsim"
)

// testMachine builds a 64-page machine (16 fast) with no CPU cache, so
// every access is a sampled miss.
func testMachine() *memsim.Machine {
	const ps = 64 * 1024
	cfg := memsim.DefaultConfig(64*ps, 16*ps, ps)
	cfg.CacheLines = 0
	return memsim.NewMachine(cfg)
}

// touchAs first-touches n distinct pages starting at page base, charged
// to the given tenant.
func touchAs(m *memsim.Machine, id memsim.TenantID, base, n int) {
	m.SetCurrentTenant(id)
	ps := m.PageSize()
	for i := 0; i < n; i++ {
		m.Access(uint64(int64(base+i)*ps), false)
	}
}

func TestStaticQuotaSplitSumsToCapacity(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{
		{Name: "a", Weight: 1},
		{Name: "b", Weight: 2},
		{Name: "c", Weight: 5},
	}, ArbiterConfig{Mode: ModeStatic})

	sum := 0
	for i := 0; i < p.Capacity(); i++ {
		q := p.Arbiter().Quota(i)
		if q < 1 {
			t.Errorf("tenant %d quota = %d, want >= 1", i, q)
		}
		if got := m.FastQuota(memsim.TenantID(i)); got != q {
			t.Errorf("tenant %d machine quota %d != arbiter quota %d", i, got, q)
		}
		sum += q
	}
	if cap := m.CapacityPages(memsim.Fast); sum != cap {
		t.Errorf("quotas sum to %d, want fast capacity %d (no stranded pages)", sum, cap)
	}
	// Shares follow weight: c (weight 5) gets the largest slice.
	if !(p.Arbiter().Quota(2) > p.Arbiter().Quota(1) && p.Arbiter().Quota(1) > p.Arbiter().Quota(0)) {
		t.Errorf("quotas %d/%d/%d not ordered by weight 1/2/5",
			p.Arbiter().Quota(0), p.Arbiter().Quota(1), p.Arbiter().Quota(2))
	}
}

func TestModeOffLeavesQuotasUnlimited(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{{Name: "a"}, {Name: "b"}}, ArbiterConfig{Mode: ModeOff})
	for i := 0; i < 2; i++ {
		if q := p.Arbiter().Quota(i); q != 0 {
			t.Errorf("tenant %d quota = %d in ModeOff, want 0 (unlimited)", i, q)
		}
	}
	if got := p.Arbiter().Mode().String(); got != "off" {
		t.Errorf("Mode = %q, want off", got)
	}
}

// recorder collects routed signal events for one tenant.
type recorder struct {
	misses []memsim.PageID
	faults []memsim.PageID
	allocs []memsim.PageID
}

func (r *recorder) OnMiss(p memsim.PageID, t memsim.TierID, w bool, now int64) {
	r.misses = append(r.misses, p)
}
func (r *recorder) OnFault(p memsim.PageID, t memsim.TierID, w bool, now int64) {
	r.faults = append(r.faults, p)
}
func (r *recorder) onAlloc(p memsim.PageID, t memsim.TierID) {
	r.allocs = append(r.allocs, p)
}

func TestDemuxRoutesSignalsByPageOwner(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{{Name: "a"}, {Name: "b"}}, ArbiterConfig{})
	var r0, r1 recorder
	p.View(0).SetSampler(&r0)
	p.View(0).SetFaultHandler(&r0)
	p.View(0).SetAllocHook(r0.onAlloc)
	p.View(1).SetSampler(&r1)
	p.View(1).SetFaultHandler(&r1)
	p.View(1).SetAllocHook(r1.onAlloc)

	touchAs(m, 0, 0, 3)
	touchAs(m, 1, 10, 2)
	// Cross-tenant re-access: tenant 1 touching tenant 0's page must
	// still deliver the miss to tenant 0 (owner routing, not current).
	m.SetCurrentTenant(1)
	m.Access(0, false)

	if want := []memsim.PageID{0, 1, 2, 0}; !reflect.DeepEqual(r0.misses, want) {
		t.Errorf("tenant 0 misses = %v, want %v", r0.misses, want)
	}
	if want := []memsim.PageID{10, 11}; !reflect.DeepEqual(r1.misses, want) {
		t.Errorf("tenant 1 misses = %v, want %v", r1.misses, want)
	}
	if want := []memsim.PageID{0, 1, 2}; !reflect.DeepEqual(r0.allocs, want) {
		t.Errorf("tenant 0 allocs = %v, want %v", r0.allocs, want)
	}
	if want := []memsim.PageID{10, 11}; !reflect.DeepEqual(r1.allocs, want) {
		t.Errorf("tenant 1 allocs = %v, want %v", r1.allocs, want)
	}

	// PoisonRange through view 0 sweeps pages of both tenants but arms
	// only tenant 0's, so tenant 1 never sees a hint fault.
	p.View(0).PoisonRange(0, 12)
	m.SetCurrentTenant(0)
	m.Access(0, false)
	m.SetCurrentTenant(1)
	m.Access(10*uint64(m.PageSize()), false)
	if want := []memsim.PageID{0}; !reflect.DeepEqual(r0.faults, want) {
		t.Errorf("tenant 0 faults = %v, want %v", r0.faults, want)
	}
	if len(r1.faults) != 0 {
		t.Errorf("tenant 1 faults = %v, want none (foreign poison filtered)", r1.faults)
	}
}

func TestViewScopesAllocationAndMigration(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{{Name: "a"}, {Name: "b"}}, ArbiterConfig{Mode: ModeStatic})
	touchAs(m, 0, 0, 4)
	touchAs(m, 1, 10, 4)

	v0 := p.View(0)
	if !v0.Allocated(0) {
		t.Error("own page reads unallocated")
	}
	if v0.Allocated(10) {
		t.Error("foreign page reads allocated through view")
	}
	if err := v0.MovePage(10, memsim.Slow); !errors.Is(err, memsim.ErrNotAllocated) {
		t.Errorf("migrating foreign page = %v, want ErrNotAllocated", err)
	}
	if got, want := v0.UsedPages(memsim.Fast), m.TenantUsedPages(0, memsim.Fast); got != want {
		t.Errorf("view fast pages = %d, want %d", got, want)
	}
	// Fast capacity through the view is the quota, not the machine.
	if got, want := v0.CapacityPages(memsim.Fast), p.Arbiter().Quota(0); got != want {
		t.Errorf("view fast capacity = %d, want quota %d", got, want)
	}
	if got := v0.FreePages(memsim.Fast); got != p.Arbiter().Quota(0)-v0.UsedPages(memsim.Fast) {
		t.Errorf("view fast free = %d, want quota headroom", got)
	}
	// The slow tier is shared: view reports machine free space.
	if got, want := v0.FreePages(memsim.Slow), m.FreePages(memsim.Slow); got != want {
		t.Errorf("view slow free = %d, want machine %d", got, want)
	}
}

func TestAdmissionControlDeniesOverBudgetPromotions(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{{Name: "a"}, {Name: "b"}}, ArbiterConfig{
		Mode:                    ModeStatic,
		Admission:               true,
		BandwidthPagesPerPeriod: 4, // 2 promotions per tenant per period
	})
	// Fill the fast tier from tenant 1 so tenant 0's pages start slow.
	touchAs(m, 1, 0, 16)
	touchAs(m, 0, 20, 6)
	v0 := p.View(0)

	// Demote two of tenant 1's fast pages to open physical room.
	v1 := p.View(1)
	for pg := 0; pg < 3; pg++ {
		if err := v1.MovePage(memsim.PageID(pg), memsim.Slow); err != nil {
			t.Fatalf("demotion %d: %v (demotions must never be denied)", pg, err)
		}
	}

	// Tenant 0's budget is 2 promotions per period: the third is denied.
	if err := v0.MovePage(20, memsim.Fast); err != nil {
		t.Fatalf("promotion 1: %v", err)
	}
	if err := v0.MovePage(21, memsim.Fast); err != nil {
		t.Fatalf("promotion 2: %v", err)
	}
	err := v0.MovePage(22, memsim.Fast)
	if !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("promotion 3 = %v, want ErrAdmissionDenied", err)
	}
	if !errors.Is(err, memsim.ErrTierFull) {
		t.Error("ErrAdmissionDenied does not wrap memsim.ErrTierFull")
	}
	if got := p.Arbiter().Denials(0); got != 1 {
		t.Errorf("denials = %d, want 1", got)
	}

	// A new control period refills the budget.
	p.BeginPeriod()
	if err := v0.MovePage(22, memsim.Fast); err != nil {
		t.Fatalf("promotion after refill: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// driveRebalance builds a two-tenant dynamic plane where tenant 0 hits
// fast constantly and tenant 1 misses constantly, then runs periods
// until the first rebalance window closes.
func driveRebalance(t *testing.T, cfg ArbiterConfig) (*memsim.Machine, *Plane) {
	t.Helper()
	m := testMachine()
	p := NewPlane(m, []Tenant{{Name: "hot"}, {Name: "cold"}}, cfg)
	touchAs(m, 0, 0, 4)   // in fast
	touchAs(m, 1, 20, 30) // mostly slow
	// Two windows of skewed traffic: the first rebalance establishes the
	// baseline counters, the second observes the skew and moves quota.
	for w := 0; w < 2; w++ {
		for i := 0; i < 200; i++ {
			touchAs(m, 0, 0, 4)
			m.SetCurrentTenant(1)
			m.Access(uint64(int64(40+i%8)*m.PageSize()), false)
		}
		for i := 0; i < cfg.RebalancePeriods; i++ {
			p.BeginPeriod()
		}
	}
	return m, p
}

func TestDynamicRebalanceMovesQuotaDownTheGradient(t *testing.T) {
	cfg := ArbiterConfig{Mode: ModeDynamic, RebalancePeriods: 2}
	m, p := driveRebalance(t, cfg)
	a := p.Arbiter()
	if a.Rebalances() == 0 {
		t.Fatal("no rebalance executed under maximal hit-ratio skew")
	}
	// Quota flows from the all-hit tenant to the all-miss tenant, and
	// conservation holds.
	if !(a.Quota(0) < a.Quota(1)) {
		t.Errorf("quota hot=%d cold=%d, want donor < receiver", a.Quota(0), a.Quota(1))
	}
	if sum := a.Quota(0) + a.Quota(1); sum != m.CapacityPages(memsim.Fast) {
		t.Errorf("quotas sum to %d after rebalance, want %d", sum, m.CapacityPages(memsim.Fast))
	}
	if a.window[0] <= a.window[1] {
		t.Errorf("window ratios hot=%.2f cold=%.2f, want hot > cold",
			a.window[0], a.window[1])
	}

	// Determinism: the identical drive yields the identical quotas.
	_, p2 := driveRebalance(t, cfg)
	if p2.Arbiter().Quota(0) != a.Quota(0) || p2.Arbiter().Rebalances() != a.Rebalances() {
		t.Error("identical drive produced different arbiter state")
	}
}

func TestDynamicRebalanceRespectsQuotaFloor(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{{Name: "hot"}, {Name: "cold"}}, ArbiterConfig{
		Mode:             ModeDynamic,
		RebalancePeriods: 1,
		QuotaStepFrac:    0.5, // huge steps to hit the floor fast
		MinQuotaFrac:     0.25,
	})
	floor := int(0.25 * float64(p.Arbiter().Quota(0)))
	touchAs(m, 0, 0, 4)
	touchAs(m, 1, 20, 30)
	for w := 0; w < 12; w++ {
		for i := 0; i < 50; i++ {
			touchAs(m, 0, 0, 4)
			m.SetCurrentTenant(1)
			m.Access(uint64(int64(40+i%8)*m.PageSize()), false)
		}
		p.BeginPeriod()
	}
	if q := p.Arbiter().Quota(0); q < floor {
		t.Errorf("donor quota %d fell below floor %d", q, floor)
	}
	if sum := p.Arbiter().Quota(0) + p.Arbiter().Quota(1); sum != m.CapacityPages(memsim.Fast) {
		t.Errorf("quotas sum to %d, want %d", sum, m.CapacityPages(memsim.Fast))
	}
}

func TestNewPlaneDefaultsAndPanics(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{{}, {Weight: -3}}, ArbiterConfig{Mode: ModeStatic})
	if got := p.Tenant(0).Name; got != "tenant0" {
		t.Errorf("defaulted name = %q, want tenant0", got)
	}
	if got := p.Tenant(1).Weight; got != 1 {
		t.Errorf("defaulted weight = %d, want 1", got)
	}
	// Equal (defaulted) weights → equal quotas.
	if p.Arbiter().Quota(0) != p.Arbiter().Quota(1) {
		t.Errorf("equal-weight quotas %d != %d", p.Arbiter().Quota(0), p.Arbiter().Quota(1))
	}
	defer func() {
		if recover() == nil {
			t.Error("NewPlane with no tenants did not panic")
		}
	}()
	NewPlane(testMachine(), nil, ArbiterConfig{})
}
