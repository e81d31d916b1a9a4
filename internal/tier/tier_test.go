package tier

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) Chain {
	t.Helper()
	c, err := ParseChain(s)
	if err != nil {
		t.Fatalf("ParseChain(%q): %v", s, err)
	}
	return c
}

func TestParseChainPresets(t *testing.T) {
	c := mustParse(t, "DRAM:25%/PM")
	if len(c) != 2 {
		t.Fatalf("got %d tiers, want 2", len(c))
	}
	if c[0].Name != "DRAM" || c[0].LatencyNs != 92 || c[0].ReadBWGBs != 81 || c[0].CapacityPct != 25 {
		t.Fatalf("bad DRAM tier: %+v", c[0])
	}
	if c[1].Name != "PM" || c[1].LatencyNs != 323 || !c[1].Unbounded() {
		t.Fatalf("bad PM tier: %+v", c[1])
	}
	if c[1].WriteBWGBs != 8 {
		t.Fatalf("PM write bandwidth %g, want the default machine's derated 8", c[1].WriteBWGBs)
	}
	// Preset names are case-insensitive and normalize to the preset's
	// canonical spelling.
	c2 := mustParse(t, "dram:25%/pm")
	if !reflect.DeepEqual(c, c2) {
		t.Fatalf("case-insensitive preset mismatch:\n%+v\n%+v", c, c2)
	}
}

func TestParseChainCustomAndOverrides(t *testing.T) {
	c := mustParse(t, "hbm:lat=50,bw=400,cap=1024/DRAM:rbw=90,cap=25%/PM:lat=400")
	if c[0].Name != "hbm" || c[0].LatencyNs != 50 || c[0].ReadBWGBs != 400 ||
		c[0].WriteBWGBs != 400 || c[0].CapacityPages != 1024 {
		t.Fatalf("bad custom tier: %+v", c[0])
	}
	if c[1].ReadBWGBs != 90 || c[1].WriteBWGBs != 81 {
		t.Fatalf("override should touch only rbw: %+v", c[1])
	}
	if c[2].LatencyNs != 400 {
		t.Fatalf("preset latency override lost: %+v", c[2])
	}
}

func TestParseChainRejects(t *testing.T) {
	cases := map[string]string{
		"empty spec":            "",
		"one tier":              "DRAM",
		"unknown custom no lat": "DRAM:25%/mystery",
		"zero bandwidth":        "DRAM:25%/slow:lat=500,bw=0",
		"negative latency":      "DRAM:25%/slow:lat=-1,bw=5",
		"non-monotonic latency": "PM:25%/DRAM",
		"equal latency":         "DRAM:25%/DRAM2:lat=92,bw=45",
		"middle tier unbounded": "DRAM:25%/CXL/PM",
		"zero-capacity pages":   "DRAM:cap=0/PM",
		"pct over 100":          "DRAM:150%/PM",
		"duplicate names":       "DRAM:25%/DRAM:lat=100,bw=40",
		"bad name":              "1dram:lat=50,bw=10,cap=8/PM",
		"unknown option":        "DRAM:25%,zap=3/PM",
		"empty option":          "DRAM:25%,/PM",
		"too many tiers":        strings.Repeat("t", 1), // placeholder, replaced below
		"nan latency":           "DRAM:25%/slow:lat=NaN,bw=5",
		"inf bandwidth":         "DRAM:25%/slow:lat=500,bw=1e300",
		"negative cap":          "DRAM:cap=-5/PM",
	}
	// Build a >MaxTiers chain: strictly increasing latencies, unique names.
	var parts []string
	for i := 0; i <= MaxTiers; i++ {
		parts = append(parts, strings.ToLower("t"+string(rune('a'+i)))+":lat="+itoa(100+i)+",bw=10,cap=8")
	}
	cases["too many tiers"] = strings.Join(parts, "/")

	for name, spec := range cases {
		if _, err := ParseChain(spec); err == nil {
			t.Errorf("%s: ParseChain(%q) unexpectedly succeeded", name, spec)
		}
	}
}

func itoa(n int) string {
	return string(rune('0'+n/100)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
}

func TestParseChainBothCapFormsLastWins(t *testing.T) {
	// "cap=5,cap=25%" is not an error at parse level — later options
	// override earlier ones, and each cap form clears the other, so the
	// result is a pure pct capacity that validates.
	c, err := ParseChain("DRAM:cap=5,cap=25%/PM")
	if err != nil {
		t.Fatalf("ParseChain: %v", err)
	}
	if c[0].CapacityPages != 0 || c[0].CapacityPct != 25 {
		t.Fatalf("want pct-only capacity, got %+v", c[0])
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"DRAM:25%/PM",
		"DRAM:12.5%/CXL:25%/PM",
		"DRAM:cap=4096/CXL:cap=8192/PM:cap=65536/NVMe",
		"hbm:lat=50,bw=400,cap=1024/DRAM",
	} {
		c := mustParse(t, spec)
		canon := c.Canonical()
		c2, err := ParseChain(canon)
		if err != nil {
			t.Fatalf("reparse Canonical(%q)=%q: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip of %q changed chain:\n  %+v\n  %+v", spec, c, c2)
		}
		if c2.Canonical() != canon {
			t.Fatalf("Canonical not a fixed point for %q: %q vs %q", spec, canon, c2.Canonical())
		}
	}
}

func TestResolve(t *testing.T) {
	c := mustParse(t, "DRAM:12.5%/CXL:25%/PM")
	r, err := c.Resolve(1000)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// The unbounded last tier resolves to the whole footprint.
	if r[0].CapacityPages != 125 || r[1].CapacityPages != 250 || r[2].CapacityPages != 1000 {
		t.Fatalf("bad resolution: %d/%d/%d", r[0].CapacityPages, r[1].CapacityPages, r[2].CapacityPages)
	}
	for _, d := range r {
		if d.CapacityPct != 0 {
			t.Fatalf("tier %s keeps percent capacity %g after Resolve", d.Name, d.CapacityPct)
		}
	}
	// Tiny footprints round down to at least one page.
	r, err = c.Resolve(3)
	if err != nil {
		t.Fatalf("Resolve(3): %v", err)
	}
	if r[0].CapacityPages != 1 {
		t.Fatalf("12.5%% of 3 pages should clamp to 1, got %d", r[0].CapacityPages)
	}
	if _, err := c.Resolve(0); err == nil {
		t.Fatal("Resolve(0) should fail")
	}
}

func TestShadowTable(t *testing.T) {
	s := NewShadowTable(16, 3)
	if _, ok := s.At(3); ok {
		t.Fatal("fresh table should have no shadows")
	}
	s.Add(3, 2)
	s.Add(5, 2)
	s.Add(7, 1)
	if got, ok := s.At(3); !ok || got != 2 {
		t.Fatalf("At(3) = %d,%v", got, ok)
	}
	if s.Count(2) != 2 || s.Count(1) != 1 || s.Total() != 3 {
		t.Fatalf("counts: tier2=%d tier1=%d total=%d", s.Count(2), s.Count(1), s.Total())
	}
	// Remove from the middle of the stack (swap-remove).
	s.Remove(3)
	if _, ok := s.At(3); ok {
		t.Fatal("removed shadow still present")
	}
	if s.Count(2) != 1 || s.Total() != 2 {
		t.Fatalf("after remove: tier2=%d total=%d", s.Count(2), s.Total())
	}
	s.Remove(3) // no-op
	if s.Total() != 2 {
		t.Fatal("double remove changed counts")
	}
	// LIFO reclaim.
	s.Add(9, 2)
	s.Add(11, 2)
	p, ok := s.PopReclaim(2)
	if !ok || p != 11 {
		t.Fatalf("PopReclaim = %d,%v, want 11 (LIFO)", p, ok)
	}
	if _, ok := s.At(11); ok {
		t.Fatal("reclaimed shadow still in table")
	}
	if _, ok := s.PopReclaim(0); ok {
		t.Fatal("PopReclaim on empty tier should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add over existing shadow should panic")
		}
	}()
	s.Add(9, 1)
}

func TestBudgets(t *testing.T) {
	b := NewBudgets(3, 2)
	if b.Boundaries() != 3 {
		t.Fatalf("Boundaries = %d", b.Boundaries())
	}
	if !b.Take(0) || !b.Take(0) || b.Take(0) {
		t.Fatal("boundary 0 should allow exactly 2 takes")
	}
	if b.left[0] != 0 || b.left[1] != 2 {
		t.Fatalf("remaining: %d/%d", b.left[0], b.left[1])
	}
	b.Reset()
	if b.left[0] != 2 {
		t.Fatal("Reset did not refill")
	}
	// Unmetered boundaries never exhaust.
	u := NewBudgets(1, 0)
	for i := 0; i < 100; i++ {
		if !u.Take(0) {
			t.Fatal("unmetered boundary exhausted")
		}
	}
}
