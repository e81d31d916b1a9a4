package memsim

import (
	"errors"
	"testing"

	"artmem/internal/tier"
)

type recSampler struct {
	events []struct {
		p     PageID
		t     TierID
		write bool
	}
}

func (r *recSampler) OnMiss(p PageID, t TierID, write bool, now int64) {
	r.events = append(r.events, struct {
		p     PageID
		t     TierID
		write bool
	}{p, t, write})
}

func boundaryFixture(t *testing.T) (*Machine, *BoundaryHub) {
	t.Helper()
	cfg := chainCfg(t, "DRAM:cap=4/CXL:cap=4,lat=180,bw=45/PM:cap=8", 12*4096, 4096)
	cfg.CacheLines = 0 // every access misses the LLC model and samples
	m := NewMachine(cfg)
	return m, NewBoundaryHub(m)
}

func TestBoundaryHubDemux(t *testing.T) {
	m, hub := boundaryFixture(t)
	if hub.NumBoundaries() != 2 {
		t.Fatalf("boundaries %d, want 2", hub.NumBoundaries())
	}
	s0, s1 := &recSampler{}, &recSampler{}
	hub.View(0).SetSampler(s0)
	hub.View(1).SetSampler(s1)
	for p := 0; p < 12; p++ {
		m.Access(uint64(p)*4096, false)
	}
	s0.events, s1.events = nil, nil

	// Tier 0 access: boundary 0 sees it as Fast; boundary 1 is blind.
	m.Access(0, false)
	if len(s0.events) != 1 || s0.events[0].t != Fast {
		t.Fatalf("tier-0 access at boundary 0: %+v", s0.events)
	}
	if len(s1.events) != 0 {
		t.Fatalf("tier-0 access leaked to boundary 1: %+v", s1.events)
	}
	s0.events = nil

	// Tier 1 access: slow side of boundary 0, fast side of boundary 1.
	m.Access(4*4096, true)
	if len(s0.events) != 1 || s0.events[0].t != Slow || !s0.events[0].write {
		t.Fatalf("tier-1 access at boundary 0: %+v", s0.events)
	}
	if len(s1.events) != 1 || s1.events[0].t != Fast {
		t.Fatalf("tier-1 access at boundary 1: %+v", s1.events)
	}
	s0.events, s1.events = nil, nil

	// Tier 2 access: only boundary 1 sees it, as Slow.
	m.Access(9*4096, false)
	if len(s0.events) != 0 {
		t.Fatalf("tier-2 access leaked to boundary 0: %+v", s0.events)
	}
	if len(s1.events) != 1 || s1.events[0].t != Slow {
		t.Fatalf("tier-2 access at boundary 1: %+v", s1.events)
	}
}

func TestBoundaryViewConfigAndCounters(t *testing.T) {
	m, hub := boundaryFixture(t)
	for p := 0; p < 12; p++ {
		m.Access(uint64(p)*4096, false)
	}
	v1 := hub.View(1) // CXL|PM
	cfg := v1.Config()
	if len(cfg.Chain) != 2 || cfg.NonExclusive {
		t.Fatal("view config should be a plain two-tier config")
	}
	fast, slow := cfg.Chain[Fast], cfg.Chain[Slow]
	if fast.LatencyNs != 180 || slow.LatencyNs != SlowLatencyNs {
		t.Fatalf("view config latencies %g/%g", fast.LatencyNs, slow.LatencyNs)
	}
	if fast.CapacityPages != 4 || slow.CapacityPages != 8 {
		t.Fatalf("view config capacities %d/%d", fast.CapacityPages, slow.CapacityPages)
	}
	// Tier mapping: CXL and above are Fast, PM is Slow.
	if v1.TierOf(m.PageOf(0)) != Fast { // DRAM page: above the boundary
		t.Fatal("DRAM page should read as Fast at boundary 1")
	}
	if v1.TierOf(m.PageOf(9*4096)) != Slow {
		t.Fatal("PM page should read as Slow at boundary 1")
	}
	if v1.UsedPages(Fast) != 4 || v1.UsedPages(Slow) != 4 {
		t.Fatalf("view used %d/%d", v1.UsedPages(Fast), v1.UsedPages(Slow))
	}
	if v1.CapacityPages(Slow) != 8 || v1.FreePages(Slow) != 4 {
		t.Fatalf("view slow cap/free %d/%d", v1.CapacityPages(Slow), v1.FreePages(Slow))
	}

	// A PM→CXL move via the view is a promotion attributed to boundary 1
	// and visible in the view's counters.
	if err := m.FreePage(m.PageOf(5 * 4096)); err != nil {
		t.Fatal(err)
	}
	if err := v1.MovePage(m.PageOf(9*4096), Fast); err != nil {
		t.Fatal(err)
	}
	c := v1.Counters()
	if c.Promotions != 1 || c.Migrations != 1 || c.MigratedBytes != 4096 {
		t.Fatalf("view counters after promotion: %+v", c)
	}
	if c0 := hub.View(0).Counters(); c0.Promotions != 0 {
		t.Fatalf("boundary 0 saw boundary 1's promotion: %+v", c0)
	}
	// Per-tier access split: the view's fast accesses are CXL's.
	if c.FastAccesses != m.TierAccesses(1) || c.SlowAccesses != m.TierAccesses(2) {
		t.Fatalf("view access split %d/%d", c.FastAccesses, c.SlowAccesses)
	}
}

func TestBoundaryViewMoveGuards(t *testing.T) {
	m, hub := boundaryFixture(t)
	for p := 0; p < 12; p++ {
		m.Access(uint64(p)*4096, false)
	}
	v0, v1 := hub.View(0), hub.View(1)
	dramPage := m.PageOf(0)
	pmPage := m.PageOf(9 * 4096)

	// Boundary 0 cannot see a PM page at all: stale candidate.
	if err := v0.MovePage(pmPage, Fast); !errors.Is(err, ErrNotInBoundary) {
		t.Fatalf("PM page at boundary 0: %v, want ErrNotInBoundary", err)
	}
	if errors.Is(ErrNotInBoundary, ErrTierFull) {
		t.Fatal("ErrNotInBoundary must not read as a full tier")
	}
	// Promoting a page already on the fast side is a no-op, not an error
	// (mirrors Machine.MovePage onto the current tier).
	if err := v0.MovePage(dramPage, Fast); err != nil {
		t.Fatalf("no-op promotion: %v", err)
	}
	// A DRAM page is "Fast" to boundary 1 as well; demoting it through
	// boundary 1 would skip CXL, so the view refuses it.
	if err := v1.MovePage(dramPage, Slow); !errors.Is(err, ErrNotInBoundary) {
		t.Fatalf("DRAM page demoted via boundary 1: %v, want ErrNotInBoundary", err)
	}
	if m.TierOf(dramPage) != 0 {
		t.Fatal("guarded moves must not relocate the page")
	}
}

func TestBoundaryBudgets(t *testing.T) {
	m, hub := boundaryFixture(t)
	for p := 0; p < 12; p++ {
		m.Access(uint64(p)*4096, false)
	}
	b := tier.NewBudgets(hub.NumBoundaries(), 2)
	hub.SetBudgets(b)

	v1 := hub.View(1)
	// Two demotions CXL→PM fit the budget; the third trips it.
	if err := v1.MovePage(m.PageOf(4*4096), Slow); err != nil {
		t.Fatal(err)
	}
	if err := v1.MovePage(m.PageOf(5*4096), Slow); err != nil {
		t.Fatal(err)
	}
	err := v1.MovePage(m.PageOf(6*4096), Slow)
	if !errors.Is(err, ErrBoundaryBudget) {
		t.Fatalf("third move: %v, want ErrBoundaryBudget", err)
	}
	if !errors.Is(err, ErrTierFull) {
		t.Fatal("budget exhaustion must read as ErrTierFull to end migration periods")
	}
	// Boundary 0 keeps its own budget.
	if err := v1.MovePage(m.PageOf(0), Slow); !errors.Is(err, ErrNotInBoundary) {
		t.Fatal("sanity: DRAM page is not boundary 1's")
	}
	if err := hub.View(0).MovePage(m.PageOf(0), Slow); err != nil {
		t.Fatalf("boundary 0 after boundary 1 ran dry: %v", err)
	}
	// Refusals must not burn budget: boundary 0 has one unit left after
	// its one move, and boundary 1 none after its two.
	if !b.Take(0) || b.Take(0) || b.Take(1) {
		t.Fatal("budget takes do not match the successful moves")
	}
	// A period reset restores the limit.
	b.Reset()
	if err := v1.MovePage(m.PageOf(6*4096), Slow); err != nil {
		t.Fatalf("post-reset move: %v", err)
	}
}

func TestBoundaryViewOnLegacyMachine(t *testing.T) {
	// The default two-tier machine exposes exactly one boundary whose
	// view behaves like the machine itself.
	m := NewMachine(DefaultConfig(64*4096, 16*4096, 4096))
	hub := NewBoundaryHub(m)
	if hub.NumBoundaries() != 1 {
		t.Fatalf("default machine boundaries %d, want 1", hub.NumBoundaries())
	}
	v := hub.View(0)
	for p := 0; p < 64; p++ {
		m.Access(uint64(p)*4096, false)
	}
	if v.UsedPages(Fast) != m.UsedPages(Fast) || v.UsedPages(Slow) != m.UsedPages(Slow) {
		t.Fatal("default view used-pages mismatch")
	}
	p := m.PageOf(40 * 4096)
	if m.TierOf(p) != Slow {
		t.Fatal("expected a slow page")
	}
	if err := m.MovePage(m.PageOf(0), Slow); err != nil {
		t.Fatal(err)
	}
	if err := v.MovePage(p, Fast); err != nil {
		t.Fatal(err)
	}
	if got := v.Counters().Promotions; got != m.Counters().Promotions {
		t.Fatalf("default view promotions %d != machine %d", got, m.Counters().Promotions)
	}
}
