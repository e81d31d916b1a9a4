package tenancy

import (
	"errors"
	"testing"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
)

func quotaSumOK(t *testing.T, p *Plane) {
	t.Helper()
	if p.Arbiter().Mode() == ModeOff {
		return
	}
	fastCap := p.m.CapacityPages(memsim.Fast)
	got := p.Arbiter().QuotaSum()
	want := fastCap
	if n := p.ActiveTenants(); n > fastCap {
		want = n
	}
	if n := p.ActiveTenants(); n == 0 {
		return
	}
	if got < want {
		t.Fatalf("active quota sum = %d, want >= %d (fast capacity must not be stranded)", got, want)
	}
	if p.ActiveTenants() <= fastCap && got != fastCap {
		t.Fatalf("active quota sum = %d, want exactly %d", got, fastCap)
	}
}

func TestRegisterDeregisterRecyclesSlots(t *testing.T) {
	m := testMachine()
	p := NewDynamicPlane(m, 3, ArbiterConfig{Mode: ModeStatic})

	a, err := p.Register(Tenant{Name: "a"})
	if err != nil || a != 0 {
		t.Fatalf("Register a = (%d, %v), want (0, nil)", a, err)
	}
	b, err := p.Register(Tenant{Name: "b", Weight: 3})
	if err != nil || b != 1 {
		t.Fatalf("Register b = (%d, %v), want (1, nil)", b, err)
	}
	quotaSumOK(t, p)
	touchAs(m, memsim.TenantID(a), 0, 6)
	touchAs(m, memsim.TenantID(b), 20, 6)

	// Drain tenant a: its pages leave the machine, its slot empties,
	// the survivor's quota absorbs the whole fast tier.
	if err := p.Deregister(a, -1); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if got := p.State(a); got != StateEmpty {
		t.Fatalf("state after deregister = %v, want empty", got)
	}
	if got := m.TenantUsedPages(memsim.TenantID(a), memsim.Fast) +
		m.TenantUsedPages(memsim.TenantID(a), memsim.Slow); got != 0 {
		t.Fatalf("departed tenant still owns %d pages", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	quotaSumOK(t, p)
	if got := p.Arbiter().Quota(b); got != 16 {
		t.Fatalf("survivor quota = %d, want 16 (whole fast tier)", got)
	}

	// The slot is reusable, and the recycled tenant starts clean.
	c, err := p.Register(Tenant{Name: "c", Class: ClassLatency})
	if err != nil || c != a {
		t.Fatalf("Register c = (%d, %v), want recycled slot %d", c, err, a)
	}
	if got := m.TenantCounters(memsim.TenantID(c)); got != (memsim.TenantCounters{}) {
		t.Fatalf("recycled slot counters = %+v, want zero", got)
	}
	if got := p.Tenant(c).Class; got != ClassLatency {
		t.Fatalf("recycled slot class = %v, want latency", got)
	}
	quotaSumOK(t, p)
	s := p.Stats()
	if s.Registrations != 3 || s.Deregistrations != 1 || s.PagesDrained != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeregisterHandoffRechargesPages(t *testing.T) {
	m := testMachine()
	p := NewDynamicPlane(m, 2, ArbiterConfig{Mode: ModeStatic})
	a, _ := p.Register(Tenant{Name: "a"})
	b, _ := p.Register(Tenant{Name: "b"})
	touchAs(m, memsim.TenantID(a), 0, 5)
	touchAs(m, memsim.TenantID(b), 30, 3)

	var inherited []memsim.PageID
	p.View(b).SetAllocHook(func(pg memsim.PageID, _ memsim.TierID) {
		inherited = append(inherited, pg)
	})
	if err := p.Deregister(a, b); err != nil {
		t.Fatalf("Deregister with handoff: %v", err)
	}
	if got := m.TenantUsedPages(memsim.TenantID(b), memsim.Fast) +
		m.TenantUsedPages(memsim.TenantID(b), memsim.Slow); got != 8 {
		t.Fatalf("inheritor RSS = %d, want 8", got)
	}
	if len(inherited) != 5 {
		t.Fatalf("inheritor alloc hook saw %d pages, want 5", len(inherited))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().PagesHandedOff; got != 5 {
		t.Fatalf("PagesHandedOff = %d, want 5", got)
	}
	// The machine total never changed: handoff recharges, not frees.
	if got := m.Counters().Freed; got != 0 {
		t.Fatalf("Freed = %d, want 0 for pure handoff", got)
	}
}

func TestReclaimInterruptionRollsBackAndRetries(t *testing.T) {
	m := testMachine()
	inj := faultinject.New(faultinject.Config{
		Seed: 5,
		// Interrupt every reclamation step inside the window; the
		// machine clock is tiny here, so now=0 is inside it.
		ReclaimInterruptWindows: []faultinject.Window{{StartNs: 0, EndNs: 1 << 40}},
	})
	m.SetFaultInjector(inj)
	p := NewDynamicPlane(m, 2, ArbiterConfig{Mode: ModeStatic})
	a, _ := p.Register(Tenant{Name: "a"})
	b, _ := p.Register(Tenant{Name: "b"})
	touchAs(m, memsim.TenantID(a), 0, 6)
	preRSS := [2]int{
		m.TenantUsedPages(memsim.TenantID(a), memsim.Fast),
		m.TenantUsedPages(memsim.TenantID(a), memsim.Slow),
	}

	err := p.Deregister(a, -1)
	if !errors.Is(err, ErrReclaimInterrupted) {
		t.Fatalf("Deregister under interrupt = %v, want ErrReclaimInterrupted", err)
	}
	if got := p.State(a); got != StateDraining {
		t.Fatalf("state after interrupt = %v, want draining", got)
	}
	// Rollback must restore the accounting exactly.
	if got := [2]int{
		m.TenantUsedPages(memsim.TenantID(a), memsim.Fast),
		m.TenantUsedPages(memsim.TenantID(a), memsim.Slow),
	}; got != preRSS {
		t.Fatalf("RSS after rollback = %v, want %v", got, preRSS)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The draining tenant is out of the arbitrated set: promotions
	// denied, survivor holds the whole quota.
	if err := p.View(a).MovePage(0, memsim.Fast); !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("draining promotion = %v, want ErrAdmissionDenied", err)
	}
	if got := p.Arbiter().Quota(b); got != 16 {
		t.Fatalf("survivor quota during drain = %d, want 16", got)
	}
	// Same with handoff: interruption mid-transfer rolls back too.
	if err := p.Deregister(a, b); !errors.Is(err, ErrReclaimInterrupted) {
		t.Fatalf("handoff under interrupt = %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().ReclaimRollbacks; got != 2 {
		t.Fatalf("rollbacks = %d, want 2", got)
	}

	// Clear the fault and retry through RetryDrains: the drain commits.
	m.SetFaultInjector(nil)
	if left := p.RetryDrains(); left != 0 {
		t.Fatalf("RetryDrains left %d draining", left)
	}
	if got := p.State(a); got != StateEmpty {
		t.Fatalf("state after retry = %v, want empty", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationBackpressure(t *testing.T) {
	m := testMachine()
	p := NewDynamicPlane(m, 8, ArbiterConfig{Mode: ModeStatic, MaxArrivalsPerPeriod: 2})
	// Pre-period registrations are exempt (one token per slot).
	for i := 0; i < 3; i++ {
		if _, err := p.Register(Tenant{}); err != nil {
			t.Fatalf("initial registration %d: %v", i, err)
		}
	}
	p.BeginPeriod()
	if _, err := p.Register(Tenant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(Tenant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(Tenant{}); !errors.Is(err, ErrRegistrationThrottled) {
		t.Fatalf("third arrival this period = %v, want ErrRegistrationThrottled", err)
	}
	p.BeginPeriod()
	if _, err := p.Register(Tenant{}); err != nil {
		t.Fatalf("arrival after refill: %v", err)
	}
	if got := p.Stats().RegistrationsThrottled; got != 1 {
		t.Fatalf("throttled = %d, want 1", got)
	}
}

func TestRegisterFullPlane(t *testing.T) {
	m := testMachine()
	p := NewDynamicPlane(m, 2, ArbiterConfig{})
	p.Register(Tenant{})
	p.Register(Tenant{})
	if _, err := p.Register(Tenant{}); !errors.Is(err, ErrPlaneFull) {
		t.Fatalf("register on full plane = %v, want ErrPlaneFull", err)
	}
	if got := p.Stats().RegistrationsDenied; got != 1 {
		t.Fatalf("denied = %d, want 1", got)
	}
}

func TestLatencyClassPreemptsBatchPool(t *testing.T) {
	m := testMachine()
	p := NewPlane(m, []Tenant{
		{Name: "lat", Class: ClassLatency},
		{Name: "bat", Class: ClassBatch},
	}, ArbiterConfig{
		Mode:                    ModeStatic,
		Admission:               true,
		BandwidthPagesPerPeriod: 4, // 2 each: latency budget 2, batch pool 2
	})
	// Fill fast from the batch tenant, then give both slow pages.
	touchAs(m, 1, 0, 16)
	touchAs(m, 0, 20, 8)
	touchAs(m, 1, 40, 4)
	// Open physical headroom.
	v1 := p.View(1)
	for pg := 0; pg < 6; pg++ {
		if err := v1.MovePage(memsim.PageID(pg), memsim.Slow); err != nil {
			t.Fatalf("demotion: %v", err)
		}
	}
	p.BeginPeriod()

	// Latency tenant promotes 4 pages: 2 on its own budget, 2 preempted
	// from the batch pool.
	v0 := p.View(0)
	for i := 0; i < 4; i++ {
		if err := v0.MovePage(memsim.PageID(20+i), memsim.Fast); err != nil {
			t.Fatalf("latency promotion %d: %v", i, err)
		}
	}
	if got := p.Arbiter().Preemptions(0); got != 2 {
		t.Fatalf("preemptions = %d, want 2", got)
	}
	// The batch tenant's pool is gone: its promotion degrades to a
	// denial (graceful ErrTierFull path), not an error class of its own.
	err := v1.MovePage(40, memsim.Fast)
	if !errors.Is(err, ErrAdmissionDenied) || !errors.Is(err, memsim.ErrTierFull) {
		t.Fatalf("preempted batch promotion = %v, want ErrAdmissionDenied wrapping ErrTierFull", err)
	}
	// A 5th latency promotion is denied too: nothing left to preempt.
	if err := v0.MovePage(24, memsim.Fast); !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("latency promotion past all budgets = %v, want denial", err)
	}
	// Next period restores the batch tenant's service: no starvation.
	p.BeginPeriod()
	if err := v1.MovePage(40, memsim.Fast); err != nil {
		t.Fatalf("batch promotion after refill: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyQuotaBoostSkewsSplit(t *testing.T) {
	m := testMachine()
	p := NewDynamicPlane(m, 2, ArbiterConfig{Mode: ModeStatic, LatencyQuotaBoost: 3})
	b, _ := p.Register(Tenant{Name: "batch"})
	l, _ := p.Register(Tenant{Name: "lat", Class: ClassLatency})
	// 16 fast pages at effective weights 1:3 split 4/12.
	if got := p.Arbiter().Quota(b); got != 4 {
		t.Fatalf("batch quota = %d, want 4", got)
	}
	if got := p.Arbiter().Quota(l); got != 12 {
		t.Fatalf("latency quota = %d, want 12", got)
	}
	quotaSumOK(t, p)
	// The latency tenant's promotion budget is boosted the same way.
	// Membership changes keep the effective-weight sum consistent.
	if err := p.Deregister(l, -1); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if got := p.Arbiter().Quota(b); got != 16 {
		t.Fatalf("survivor quota = %d, want the whole fast tier", got)
	}
	quotaSumOK(t, p)

	// Default boost (0 -> 1) leaves the classic equal split untouched.
	p2 := NewDynamicPlane(testMachine(), 2, ArbiterConfig{Mode: ModeStatic})
	b2, _ := p2.Register(Tenant{Name: "batch"})
	l2, _ := p2.Register(Tenant{Name: "lat", Class: ClassLatency})
	if qb, ql := p2.Arbiter().Quota(b2), p2.Arbiter().Quota(l2); qb != ql {
		t.Fatalf("unboosted split %d/%d, want equal", qb, ql)
	}
}
