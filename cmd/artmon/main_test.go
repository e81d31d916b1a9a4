package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/tenancy"
	"artmem/internal/tier"
)

// TestPollAndRenderAgainstSystem exercises the monitor end to end
// against a real System behind its ControlHandler: the poll flattens
// /metrics.json and parses the /trace tail, and the rendered frame
// carries the dashboard's fixtures.
func TestPollAndRenderAgainstSystem(t *testing.T) {
	mcfg := memsim.DefaultConfig(64*64*1024, 16*64*1024, 64*1024)
	mcfg.CacheLines = 0
	sys := core.NewSystem(core.SystemConfig{
		Machine:           mcfg,
		Policy:            core.Config{SamplePeriod: 1},
		SamplingInterval:  500 * time.Microsecond,
		MigrationInterval: time.Millisecond,
	})
	srv := httptest.NewServer(sys.ControlHandler())
	defer srv.Close()

	for p := uint64(0); p < 64; p++ {
		sys.Access(p*64*1024, false)
	}

	cur, err := poll(srv.URL, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.vals) == 0 {
		t.Fatal("poll flattened no metrics")
	}
	if v := cur.metric(`artmem_tier_pages{tier="fast"}`); v <= 0 {
		t.Errorf("fast tier pages = %v, want > 0", v)
	}
	if v := cur.metric(`artmem_tier_capacity_pages{tier="fast"}`); v != 16 {
		t.Errorf("fast capacity = %v, want 16", v)
	}

	frame := renderFrame(cur, nil, srv.URL)
	for _, want := range []string{
		"artmon " + srv.URL,
		"fast  [", "slow  [", // occupancy bars
		"counter", "migrations", "pebs samples",
		"agent: state", "lru:   fast_active",
		"recent decisions",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// No previous sample: every rate cell is the placeholder.
	if !strings.Contains(frame, " -\n") {
		t.Errorf("first frame should render '-' rates:\n%s", frame)
	}
	if strings.Contains(frame, "DEGRADED") {
		t.Errorf("healthy system rendered degraded:\n%s", frame)
	}
	// A single-tenant daemon serves no /tenants: the monitor must
	// degrade gracefully — no tenants field, no per-tenant section.
	if cur.tenants != nil {
		t.Error("poll against single-tenant daemon filled tenants")
	}
	if strings.Contains(frame, "tenants (arbiter") {
		t.Errorf("single-tenant frame rendered a tenants section:\n%s", frame)
	}
	// Likewise a daemon without -serve has no /slo: the sample must not
	// grow an SLO report and the frame must not draw the burn panel.
	if cur.slo != nil {
		t.Error("poll against serve-less daemon filled slo")
	}
	if strings.Contains(frame, "slo burn") {
		t.Errorf("serve-less frame rendered an SLO panel:\n%s", frame)
	}
	// And a two-tier daemon serves no /tiers: the classic fast/slow
	// panel stays, the chain panel never renders.
	if cur.tiers != nil {
		t.Error("poll against two-tier daemon filled tiers")
	}
	if strings.Contains(frame, "chain (") {
		t.Errorf("two-tier frame rendered a chain panel:\n%s", frame)
	}
}

// TestPollAndRenderAgainstTieredSystem drives the monitor against a
// System on an N-tier chain: /tiers is picked up, the chain panel
// replaces the fast/slow bars and two-tier counter table, and the
// decision tail drains the merged boundary traces.
func TestPollAndRenderAgainstTieredSystem(t *testing.T) {
	ch, err := tier.ParseChain("DRAM:cap=16/CXL:cap=24/PM")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := memsim.DefaultConfig(64*64*1024, 0, 64*1024)
	mcfg.Chain = ch
	mcfg.NonExclusive = true
	mcfg.CacheLines = 0
	sys := core.NewSystem(core.SystemConfig{
		Machine:           mcfg,
		Policy:            core.Config{SamplePeriod: 1},
		SamplingInterval:  500 * time.Microsecond,
		MigrationInterval: time.Millisecond,
	})
	srv := httptest.NewServer(sys.ControlHandler())
	defer srv.Close()

	for p := uint64(0); p < 64; p++ {
		sys.Access(p*64*1024, false)
	}

	cur, err := poll(srv.URL, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cur.tiers == nil {
		t.Fatal("poll did not pick up /tiers")
	}
	if got := len(cur.tiers.Tiers); got != 3 {
		t.Fatalf("tiers report has %d tiers, want 3", got)
	}
	if cur.tiers.Tiers[0].UsedPages == 0 {
		t.Error("DRAM tier shows no resident pages after the sweep")
	}

	frame := renderFrame(cur, nil, srv.URL)
	for _, want := range []string{
		"chain (3 tiers, non-exclusive migration):",
		"DRAM  [", "CXL   [", "PM    [", // occupancy bars in chain order
		"boundary", "DRAM|CXL", "CXL|PM", // one row per boundary
		"shadow invalidates",
		"recent decisions",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// The two-tier sections must not render against a chain daemon:
	// the chain panel replaces them.
	for _, absent := range []string{"fast  [", "slow  [", "lru:", "accesses fast"} {
		if strings.Contains(frame, absent) {
			t.Errorf("chain frame rendered two-tier section %q:\n%s", absent, frame)
		}
	}
}

// TestRenderTiersRates pins the chain panel's delta arithmetic and
// degrade cells against hand-built reports: totals-only on the first
// frame, per-second rates once a previous report exists, and the DEGR
// marker for a boundary agent in heuristic fallback.
func TestRenderTiersRates(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	mk := func(promos, acc uint64) *core.TiersReport {
		return &core.TiersReport{
			NonExclusive: true,
			Tiers: []core.TierStatus{
				{Index: 0, Name: "DRAM", UsedPages: 10, Capacity: 16, ShadowPages: 0, Accesses: acc},
				{Index: 1, Name: "PM", UsedPages: 40, Capacity: 0, ShadowPages: 3, Accesses: 7},
			},
			Boundaries: []core.BoundaryStatus{
				{Boundary: 0, Upper: "DRAM", Lower: "PM", Promotions: promos,
					Demotions: 4, ShadowDiscards: 2, Threshold: 8, Degraded: true},
			},
			ShadowInvalidates: 5,
			ShadowReclaims:    1,
		}
	}
	prev := &sample{at: t0, tiers: mk(100, 1000)}
	cur := &sample{at: t0.Add(2 * time.Second), tiers: mk(150, 1200)}

	first := renderTiers(cur, nil, 0)
	if !strings.Contains(first, " - ") {
		t.Errorf("first frame should render '-' rates:\n%s", first)
	}
	out := renderTiers(cur, prev, 2)
	for _, want := range []string{
		"25.0",  // (150-100)/2 promotions per second
		"100.0", // (1200-1000)/2 accesses per second
		"DEGR",
		"shadow invalidates 5  reclaims 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTiers missing %q:\n%s", want, out)
		}
	}
}

// TestPollAndRenderAgainstMultiSystem drives the monitor against a
// multi-tenant daemon: /tenants is picked up and the frame grows the
// per-tenant section between the lru line and the decision tail.
func TestPollAndRenderAgainstMultiSystem(t *testing.T) {
	mcfg := memsim.DefaultConfig(128*64*1024, 32*64*1024, 64*1024)
	mcfg.CacheLines = 0
	sys := core.NewMultiSystem(core.MultiSystemConfig{
		Machine: mcfg,
		Tenants: []core.TenantConfig{
			{Name: "alpha", Weight: 1, Policy: core.Config{SamplePeriod: 1, Seed: 1}},
			{Name: "beta", Weight: 3, Policy: core.Config{SamplePeriod: 1, Seed: 2}},
		},
		Arbiter:           tenancy.ArbiterConfig{Mode: tenancy.ModeStatic, Admission: true},
		SamplingInterval:  500 * time.Microsecond,
		MigrationInterval: time.Millisecond,
	})
	srv := httptest.NewServer(sys.ControlHandler())
	defer srv.Close()
	for p := uint64(0); p < 40; p++ {
		sys.AccessBatch(0, []uint64{p * 64 * 1024}, []bool{false})
		sys.AccessBatch(1, []uint64{(64 + p) * 64 * 1024}, []bool{false})
	}

	cur, err := poll(srv.URL, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cur.tenants == nil {
		t.Fatal("poll did not pick up /tenants")
	}
	frame := renderFrame(cur, nil, srv.URL)
	for _, want := range []string{
		"tenants (2/2 active, arbiter static, admission true",
		"lifecycle: regs 2  deregs 0  crashes 0",
		"alpha", "beta", "class", "hit ratio", "quota",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// The section sits above the decision tail.
	if i, j := strings.Index(frame, "tenants (arbiter"), strings.Index(frame, "recent decisions"); i > j {
		t.Errorf("tenants section after decision tail:\n%s", frame)
	}
}

// TestRenderTenants pins the per-tenant row format against a hand-built
// report that mimics a daemon predating the lifecycle plane: no
// capacity, no classes. The section must degrade — plain header, no
// lifecycle ledger, "-" class cells — while unlimited quotas print "-"
// and degraded agents flag DEGR.
func TestRenderTenants(t *testing.T) {
	out := renderTenants(&core.TenantsReport{
		ArbiterMode: "off",
		Rebalances:  2,
		Tenants: []core.TenantStatus{
			{Name: "a", HitRatio: 0.5, FastPages: 10, QuotaPages: 0, Promotions: 3},
			{Name: "b", HitRatio: 0.25, FastPages: 4, QuotaPages: 7, AdmissionDenials: 9, Degraded: true},
		},
	})
	for _, want := range []string{
		"tenants (arbiter off, admission false, rebalances 2):",
		"0.500", "0.250", "DEGR",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTenants missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "active,") || strings.Contains(out, "lifecycle:") {
		t.Errorf("old-daemon report rendered lifecycle fields:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[2], " - ") {
		t.Errorf("unlimited quota not rendered as '-': %q", lines[2])
	}
	if !strings.Contains(lines[3], " 7 ") && !strings.HasSuffix(strings.TrimRight(lines[3], " "), "DEGR") {
		t.Errorf("row misrendered: %q", lines[3])
	}
}

// TestRenderTenantsLifecycle pins the lifecycle-aware section: slot
// occupancy in the header, the ledger line, SLO class cells, and the
// draining state marker.
func TestRenderTenantsLifecycle(t *testing.T) {
	out := renderTenants(&core.TenantsReport{
		ArbiterMode:      "static",
		AdmissionControl: true,
		Capacity:         8,
		ActiveTenants:    2,
		Registrations:    41,
		Deregistrations:  30,
		Crashes:          6,
		ReclaimRollbacks: 3,
		Throttled:        12,
		Tenants: []core.TenantStatus{
			{Name: "svc", SLOClass: "latency", State: "active", HitRatio: 0.9, QuotaPages: 12},
			{Name: "job", SLOClass: "batch", State: "draining", HitRatio: 0.4, QuotaPages: 4},
		},
	})
	for _, want := range []string{
		"tenants (2/8 active, arbiter static, admission true",
		"lifecycle: regs 41  deregs 30  crashes 6  rollbacks 3  throttled 12",
		"latency", "batch", "drain",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTenants missing %q:\n%s", want, out)
		}
	}
}

// TestRenderSLO pins the burn-panel format against a hand-built
// report: window labels in the header, one row per slot with traffic,
// idle slots (the capacity-sized monitor pre-allocates them) skipped.
func TestRenderSLO(t *testing.T) {
	rep := &telemetry.SLOReport{
		WindowsNs: []int64{60e9, 300e9, 1800e9},
		Tenants: []telemetry.SLOTenantReport{
			{
				Slot:         0,
				SLOObjective: telemetry.LatencySLO(),
				Windows: []telemetry.SLOWindowReport{
					{WindowNs: 60e9, Batches: 100, LatencyBreaches: 4, LatencyBurn: 4.0, LossBurn: 0},
					{WindowNs: 300e9, Batches: 400, LatencyBreaches: 4, LatencyBurn: 1.0, LossBurn: 0},
					{WindowNs: 1800e9, Batches: 900, LatencyBreaches: 4, Lost: 2, LatencyBurn: 0.4, LossBurn: 2.2},
				},
			},
			{
				Slot:         1,
				SLOObjective: telemetry.BatchSLO(),
				Windows: []telemetry.SLOWindowReport{
					{WindowNs: 60e9}, {WindowNs: 300e9}, {WindowNs: 1800e9},
				},
			},
		},
	}
	out := renderSLO(rep)
	for _, want := range []string{
		"slo burn (windows 1m0s/5m0s/30m0s):",
		"latency burn", "loss burn",
		"latency", "900", // class and widest-window batch count
		"4.0/1.0/0.4", "0.0/0.0/2.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderSLO missing %q:\n%s", want, out)
		}
	}
	// Slot 1 never saw traffic: no row for it.
	if strings.Contains(out, "\n  1 ") {
		t.Errorf("idle slot rendered a row:\n%s", out)
	}
	if !strings.Contains(renderSLO(&telemetry.SLOReport{WindowsNs: []int64{60e9}}), "no serving traffic yet") {
		t.Error("empty report missing placeholder line")
	}
}

// TestPollSLOFromCannedDaemon drives poll against a canned mux that
// serves the observability trio the way a -serve daemon does, and
// checks the burn panel lands in the frame between the serving and
// decision sections.
func TestPollSLOFromCannedDaemon(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"artmem_migrations_total": 5, "artmem_serve_connections": 1,
			"artmem_serve_batch_latency_ns_p50": 1000000,
			"artmem_serve_batch_latency_ns_p99": 2000000, "artmem_serve_batch_latency_ns_p999": 3000000,
			"artmem_serve_queue_wait_ns_p50": 100, "artmem_serve_queue_wait_ns_p99": 200,
			"artmem_serve_queue_wait_ns_p999": 300}`)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(telemetry.SLOReport{
			WindowsNs: []int64{60e9},
			Tenants: []telemetry.SLOTenantReport{{
				Slot:         0,
				SLOObjective: telemetry.BatchSLO(),
				Windows:      []telemetry.SLOWindowReport{{WindowNs: 60e9, Batches: 7, LatencyBurn: 1.5}},
			}},
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cur, err := poll(srv.URL, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cur.slo == nil {
		t.Fatal("poll did not pick up /slo")
	}
	frame := renderFrame(cur, nil, srv.URL)
	for _, want := range []string{
		"slo burn (windows 1m0s):", "batch", "1.5",
		"batch latency    p50 1.00ms  p99 2.00ms  p999 3.00ms",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if i, j := strings.Index(frame, "slo burn"), strings.Index(frame, "recent decisions"); i > j {
		t.Errorf("SLO panel after decision tail:\n%s", frame)
	}
}

// TestRenderFrameRates checks the counter-delta arithmetic and the
// degraded banner against hand-built samples.
func TestRenderFrameRates(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	prev := &sample{at: t0, vals: map[string]float64{
		"artmem_migrations_total": 100,
	}}
	cur := &sample{at: t0.Add(2 * time.Second), vals: map[string]float64{
		"artmem_migrations_total": 150,
		"artmem_degraded":         1,
	}}
	frame := renderFrame(cur, prev, "http://x")
	if !strings.Contains(frame, "migrations") || !strings.Contains(frame, "25.0") {
		t.Errorf("missing 25.0/s migration rate:\n%s", frame)
	}
	if !strings.Contains(frame, "[DEGRADED") {
		t.Errorf("degraded banner missing:\n%s", frame)
	}
	if !strings.Contains(frame, "(none yet)") {
		t.Errorf("empty trace tail not reported:\n%s", frame)
	}
}

// TestRenderFrameDecisionTail pins the decision-line format and the
// seq ordering.
func TestRenderFrameDecisionTail(t *testing.T) {
	cur := &sample{at: time.Now(), vals: map[string]float64{}, events: []telemetry.Event{
		{Seq: 2, Kind: telemetry.KindDecision, State: 3, Reward: -0.5, Quota: 64, Threshold: 4, Promoted: 7},
		{Seq: 1, Kind: telemetry.KindDegraded, Detail: "entered fallback"},
	}}
	frame := renderFrame(cur, nil, "http://x")
	i := strings.Index(frame, "entered fallback")
	j := strings.Index(frame, "s=3 r=-0.50 quota=64 thr=4 promoted=7")
	if i < 0 || j < 0 {
		t.Fatalf("decision tail misrendered:\n%s", frame)
	}
	if i > j {
		t.Errorf("events not in seq order:\n%s", frame)
	}
}

func TestPollError(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close()
	if _, err := poll(srv.URL, 4); err == nil {
		t.Fatal("poll against a dead server succeeded")
	}
}

func TestGaugeBar(t *testing.T) {
	full := gaugeBar("fast", 40, 40)
	if !strings.Contains(full, "100.0%") || !strings.Contains(full, strings.Repeat("|", 40)) {
		t.Errorf("full bar = %q", full)
	}
	empty := gaugeBar("slow", 0, 40)
	if strings.Contains(empty, "|") {
		t.Errorf("empty bar drew ticks: %q", empty)
	}
	// Zero capacity (metrics not yet scraped) must not divide by zero.
	if z := gaugeBar("x", 5, 0); !strings.Contains(z, "0.0%") {
		t.Errorf("zero-capacity bar = %q", z)
	}
}
