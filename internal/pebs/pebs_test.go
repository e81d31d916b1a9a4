package pebs

import (
	"testing"
	"testing/quick"

	"artmem/internal/memsim"
	"artmem/internal/telemetry"
)

func TestSamplingPeriod(t *testing.T) {
	s := New(Config{Period: 10, RingSize: 1024})
	for i := 0; i < 100; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, int64(i))
	}
	if s.Total() != 10 {
		t.Errorf("Total = %d, want 10 (period 10, 100 events)", s.Total())
	}
	if s.Pending() != 10 {
		t.Errorf("Pending = %d, want 10", s.Pending())
	}
	// The recorded pages must be every 10th event (the 10th, 20th, ...).
	var pages []memsim.PageID
	s.Drain(func(smp Sample) { pages = append(pages, smp.Page) })
	for i, p := range pages {
		want := memsim.PageID(10*i + 9)
		if p != want {
			t.Errorf("sample %d: page %d, want %d", i, p, want)
		}
	}
}

func TestPeriodOneSamplesEverything(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 16})
	s.OnMiss(1, memsim.Slow, true, 5)
	if s.Total() != 1 {
		t.Fatalf("Total = %d, want 1", s.Total())
	}
	var got Sample
	s.Drain(func(smp Sample) { got = smp })
	want := Sample{Page: 1, Tier: memsim.Slow, Write: true, Time: 5}
	if got != want {
		t.Errorf("sample = %+v, want %+v", got, want)
	}
}

func TestZeroPeriodClampedToOne(t *testing.T) {
	s := New(Config{Period: 0, RingSize: 4})
	if p := s.Stats().Period; p != 1 {
		t.Errorf("Period = %d, want 1", p)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 4})
	for i := 0; i < 10; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, int64(i))
	}
	if s.Pending() != 4 {
		t.Errorf("Pending = %d, want 4 (ring size)", s.Pending())
	}
	if s.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped())
	}
	// The survivors are the oldest four (PEBS drops new records when the
	// buffer is full and undrained).
	var pages []memsim.PageID
	s.Drain(func(smp Sample) { pages = append(pages, smp.Page) })
	for i, p := range pages {
		if p != memsim.PageID(i) {
			t.Errorf("survivor %d = page %d, want %d", i, p, i)
		}
	}
}

func TestDrainEmptiesAndReturnsCount(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 8})
	for i := 0; i < 5; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, 0)
	}
	if n := s.Drain(func(Sample) {}); n != 5 {
		t.Errorf("Drain returned %d, want 5", n)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after drain = %d", s.Pending())
	}
	if n := s.Drain(func(Sample) { t.Error("callback on empty drain") }); n != 0 {
		t.Errorf("second Drain returned %d", n)
	}
}

func TestDrainOrderAcrossWrap(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 4})
	for i := 0; i < 3; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, 0)
	}
	s.Drain(func(Sample) {})
	// The buffer restarts at slot 0; of these five, the last drops.
	for i := 10; i < 15; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, 0)
	}
	var pages []memsim.PageID
	s.Drain(func(smp Sample) { pages = append(pages, smp.Page) })
	want := []memsim.PageID{10, 11, 12, 13}
	if len(pages) != len(want) {
		t.Fatalf("drained %v, want %v", pages, want)
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("drained %v, want %v", pages, want)
		}
	}
}

func TestWindowCounts(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 64})
	for i := 0; i < 7; i++ {
		s.OnMiss(0, memsim.Fast, false, 0)
	}
	for i := 0; i < 3; i++ {
		s.OnMiss(1, memsim.Slow, false, 0)
	}
	pf, psl := s.PeekWindowCounts()
	if pf != 7 || psl != 3 {
		t.Errorf("Peek = %d/%d, want 7/3", pf, psl)
	}
	f, sl := s.WindowCounts()
	if f != 7 || sl != 3 {
		t.Errorf("WindowCounts = %d/%d, want 7/3", f, sl)
	}
	f, sl = s.WindowCounts()
	if f != 0 || sl != 0 {
		t.Errorf("WindowCounts not reset: %d/%d", f, sl)
	}
}

func TestChargeHook(t *testing.T) {
	var charged float64
	s := New(Config{Period: 2, RingSize: 8, SampleCostNs: 100,
		Charge: func(ns float64) { charged += ns }})
	for i := 0; i < 10; i++ { // 5 samples recorded
		s.OnMiss(0, memsim.Fast, false, 0)
	}
	if charged != 500 {
		t.Errorf("charged = %g, want 500", charged)
	}
}

func TestIntegrationWithMachine(t *testing.T) {
	cfg := memsim.DefaultConfig(64*64*1024, 32*64*1024, 64*1024)
	cfg.CacheLines = 0
	m := memsim.NewMachine(cfg)
	s := New(Config{Period: 5, RingSize: 1024})
	m.SetSampler(s)
	for i := 0; i < 1000; i++ {
		m.Access(uint64(i*64)%uint64(cfg.FootprintBytes), false)
	}
	if s.Total() != 200 {
		t.Errorf("sampler recorded %d, want 200", s.Total())
	}
}

// Property: total == drained + pending + dropped at all times.
func TestSampleConservationProperty(t *testing.T) {
	f := func(events []bool, period uint8, ringBits uint8) bool {
		p := uint64(period%16) + 1
		ring := 1 << (ringBits % 6) // 1..32
		s := New(Config{Period: p, RingSize: ring})
		drained := uint64(0)
		for i, w := range events {
			s.OnMiss(memsim.PageID(i), memsim.Fast, w, int64(i))
			if i%17 == 0 {
				drained += uint64(s.Drain(func(Sample) {}))
			}
			if s.Total() != drained+uint64(s.Pending())+s.Dropped() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOnMiss(b *testing.B) {
	s := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, int64(i))
		if i%100000 == 0 {
			s.Drain(func(Sample) {})
		}
	}
}

// windowInjector drops or overflows every sample inside [from, to).
type windowInjector struct {
	dropFrom, dropTo         int64
	overflowFrom, overflowTo int64
}

func (w *windowInjector) DropSample(now int64) bool {
	return now >= w.dropFrom && now < w.dropTo
}

func (w *windowInjector) RingOverflow(now int64) bool {
	return now >= w.overflowFrom && now < w.overflowTo
}

func TestInjectedSampleDropGoesFullyDark(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 1024})
	s.SetInjector(&windowInjector{dropFrom: 0, dropTo: 100})
	for i := 0; i < 100; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Slow, false, int64(i))
	}
	// A dropped sample is lost before anything observes it: no ring
	// record, no window counts, no total — the signal goes dry, which is
	// what drives ArtMem into its no-sample state.
	if s.Pending() != 0 {
		t.Errorf("Pending = %d inside drop window, want 0", s.Pending())
	}
	fast, slow := s.PeekWindowCounts()
	if fast != 0 || slow != 0 {
		t.Errorf("window counts %d/%d inside drop window, want 0/0", fast, slow)
	}
	if s.Total() != 0 {
		t.Errorf("Total = %d, want 0", s.Total())
	}
	if s.InjectedDrops() != 100 {
		t.Errorf("InjectedDrops = %d, want 100", s.InjectedDrops())
	}
	// Outside the window, sampling resumes.
	s.OnMiss(0, memsim.Fast, false, 200)
	if s.Pending() != 1 || s.Total() != 1 {
		t.Errorf("sampling did not resume after the window")
	}
}

func TestInjectedRingOverflowKeepsWindowCounts(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 1024})
	s.SetInjector(&windowInjector{overflowFrom: 0, overflowTo: 50, dropFrom: -1, dropTo: -1})
	for i := 0; i < 50; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, int64(i))
	}
	// Overflow loses the record but the PMU-side window counters
	// survive, exactly like a genuine full buffer.
	if s.Pending() != 0 {
		t.Errorf("Pending = %d during overflow, want 0", s.Pending())
	}
	fast, _ := s.PeekWindowCounts()
	if fast != 50 {
		t.Errorf("window fast count = %d during overflow, want 50", fast)
	}
	if s.Dropped() != 50 {
		t.Errorf("Dropped = %d, want 50", s.Dropped())
	}
	s.OnMiss(0, memsim.Fast, false, 100)
	if s.Pending() != 1 {
		t.Error("ring did not recover after the overflow window")
	}
}

func TestSamplerPageTrace(t *testing.T) {
	pt := telemetry.NewPageTrace(64, 1) // trace every page
	s := New(Config{Period: 2, RingSize: 3})
	s.SetPageTrace(pt)
	for i := 0; i < 10; i++ {
		s.OnMiss(7, memsim.Fast, false, int64(100+i))
	}
	ev := pt.PageEvents(7)
	if len(ev) != 5 {
		t.Fatalf("traced %d sample events, want 5 (period 2, 10 misses)", len(ev))
	}
	for i, e := range ev {
		if e.Kind != telemetry.PageKindSample || e.Tier != "fast" {
			t.Errorf("event %d: kind %q tier %q", i, e.Kind, e.Tier)
		}
		want := telemetry.OutcomeRecorded
		if i >= 3 { // ring size 3: later samples overflow
			want = telemetry.OutcomeRingDropped
		}
		if e.Outcome != want {
			t.Errorf("event %d: outcome %q, want %q", i, e.Outcome, want)
		}
	}

	// Removing the trace silences the journal.
	s.SetPageTrace(nil)
	s.OnMiss(7, memsim.Fast, false, 200)
	s.OnMiss(7, memsim.Fast, false, 201)
	if got := len(pt.PageEvents(7)); got != 5 {
		t.Errorf("journal grew to %d events after trace removal", got)
	}
}
