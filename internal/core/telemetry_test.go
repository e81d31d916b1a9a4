package core

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"artmem/internal/telemetry"
)

// tickOnce drives one decision period with fresh access activity so the
// sampling window is never empty (keeps the agent out of degraded mode).
func tickOnce(s *System) {
	for p := uint64(0); p < 32; p++ {
		s.Access(p*64*1024, false)
	}
	s.mu.Lock()
	s.pol.Tick(s.m.Now())
	s.mu.Unlock()
}

// TestStatsSchemaPinned pins the exact key set of the /stats JSON object.
// The endpoint predates the telemetry registry; external scrapers may
// depend on every one of these fields, so a key disappearing (or an
// accidental rename while moving counters onto the registry) must fail
// loudly. Adding new keys is a deliberate act: extend this list.
func TestStatsSchemaPinned(t *testing.T) {
	s := NewSystem(testSystemConfig())
	tickOnce(s)
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"virtual_ns", "fast_accesses", "slow_accesses", "cache_hits",
		"dram_ratio", "migrations", "promotions", "demotions",
		"migrated_bytes", "degraded", "degraded_ticks", "degraded_entries",
		"migration_failures", "migration_retries", "migration_skips",
		"migration_rollbacks", "tier_full_stops", "sample_drops",
		"watchdog_stalls", "panics",
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Strings(want)
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("/stats schema drifted:\n got  %v\n want %v", keys, want)
	}
}

var promLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?(Inf|[0-9].*)))$`)

func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	s := NewSystem(testSystemConfig())
	for i := 0; i < 5; i++ {
		tickOnce(s)
	}
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	// The acceptance set from the issue: tier occupancy, migration
	// counters, the access-latency histogram, RL decision counters —
	// plus one representative per instrumented layer.
	for _, want := range []string{
		`artmem_tier_pages{tier="fast"}`,
		`artmem_tier_pages{tier="slow"}`,
		`artmem_tier_capacity_pages{tier="fast"}`,
		"artmem_migrations_total",
		"artmem_promotions_total",
		"artmem_demotions_total",
		`artmem_access_latency_ns_bucket{le="+Inf"}`,
		"artmem_access_latency_ns_sum",
		"artmem_access_latency_ns_count",
		"artmem_decisions_total 5",
		`artmem_rl_updates_total{table="migration"}`,
		`artmem_rl_explorations_total{table="threshold"}`,
		"artmem_pebs_samples_total",
		`artmem_lru_pages{list="fast_active"}`,
		"artmem_threshold",
		"artmem_sampling_beats_total",
		"artmem_worker_panics_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLifecycleMetricNamesPinned pins the six liveness series of every
// online runtime: name, prefix, type, and the empty label set.
// Dashboards and the serve layer's stall attribution read them by name,
// and the per-runtime prefix keeps each daemon mode's series distinct.
func TestLifecycleMetricNamesPinned(t *testing.T) {
	for _, rt := range []struct {
		name, prefix string
		tel          func() *telemetry.Set
	}{
		{"System", "artmem_", func() *telemetry.Set {
			return NewSystem(testSystemConfig()).Telemetry()
		}},
		{"MultiSystem", "artmem_", func() *telemetry.Set {
			return NewMultiSystem(testMultiConfig()).Telemetry()
		}},
		{"TieredSystem", "artmem_tiered_", func() *telemetry.Set {
			return NewTieredSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false)).Telemetry()
		}},
	} {
		t.Run(rt.name, func(t *testing.T) {
			reg := rt.tel().Registry
			snap := reg.Snapshot()
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for _, series := range []string{
				"sampling_beats_total", "migration_beats_total",
				"sampling_stalls_total", "migration_stalls_total",
				"worker_panics_total", "control_busy_ns_total",
			} {
				name := rt.prefix + series
				if _, ok := snap[name]; !ok {
					t.Errorf("snapshot missing unlabelled series %s", name)
				}
				if !strings.Contains(sb.String(), "# TYPE "+name+" counter\n") {
					t.Errorf("exposition missing counter %s", name)
				}
			}
		})
	}
}

// TestMetricsLatencyHistogramConsistent checks the pull-based access
// latency histogram against the machine's ground-truth counters: every
// cache-missing access shows up in the +Inf bucket.
func TestMetricsLatencyHistogramConsistent(t *testing.T) {
	s := NewSystem(testSystemConfig())
	for i := 0; i < 3; i++ {
		tickOnce(s)
	}
	data := func() telemetry.HistogramData {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.m.AccessLatencyData()
	}()
	c := s.Counters()
	total := c.FastAccesses + c.SlowAccesses + c.CacheHits
	if len(data.Counts) == 0 {
		t.Fatal("no histogram buckets")
	}
	if got := data.Counts[len(data.Counts)-1]; got != total {
		t.Errorf("latency histogram count = %d, want %d accesses", got, total)
	}
	if data.Sum <= 0 {
		t.Errorf("latency histogram sum = %g", data.Sum)
	}
}

func TestTraceEndpointJSONL(t *testing.T) {
	s := NewSystem(testSystemConfig())
	for i := 0; i < 4; i++ {
		tickOnce(s)
	}
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []telemetry.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", len(events)+1, err, sc.Text())
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	var lastSeq uint64
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Errorf("event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Kind == "" {
			t.Errorf("event %d: empty kind", i)
		}
	}

	// ?n= caps the drain.
	resp2, err := srv.Client().Get(srv.URL + "/trace?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if n := len(strings.Split(strings.TrimRight(string(body), "\n"), "\n")); n != 2 {
		t.Errorf("/trace?n=2 returned %d lines", n)
	}
	resp3, err := srv.Client().Get(srv.URL + "/trace?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 400 {
		t.Errorf("/trace?n=bogus status = %d", resp3.StatusCode)
	}
}

// TestDecisionTraceOnePerPeriod is the issue's acceptance test: a
// deterministic run produces exactly one decision event per RL period,
// and each event's recorded action (quota, threshold) matches the
// agent's state after that period.
func TestDecisionTraceOnePerPeriod(t *testing.T) {
	const periods = 20
	s := NewSystem(testSystemConfig())
	pol := s.Policy()

	type expect struct {
		quota     int
		threshold uint32
		state     int
	}
	var exp []expect
	for i := 0; i < periods; i++ {
		tickOnce(s)
		s.mu.Lock()
		exp = append(exp, expect{
			quota:     pol.cfg.MigrationPages[pol.actMig],
			threshold: pol.threshold,
			state:     pol.state,
		})
		s.mu.Unlock()
	}

	var decisions []telemetry.Event
	for _, ev := range s.Telemetry().Trace.Events(0) {
		if ev.Kind == telemetry.KindDecision {
			decisions = append(decisions, ev)
		}
	}
	if len(decisions) != periods {
		t.Fatalf("decision events = %d, want one per period (%d)", len(decisions), periods)
	}
	if got := pol.Decisions(); got != periods {
		t.Errorf("Decisions() = %d, want %d", got, periods)
	}
	prevTime := int64(-1)
	for i, ev := range decisions {
		if ev.Quota != exp[i].quota {
			t.Errorf("period %d: trace quota %d, agent chose %d", i, ev.Quota, exp[i].quota)
		}
		if ev.Threshold != exp[i].threshold {
			t.Errorf("period %d: trace threshold %d, agent has %d", i, ev.Threshold, exp[i].threshold)
		}
		if ev.State != exp[i].state {
			t.Errorf("period %d: trace state %d, agent observed %d", i, ev.State, exp[i].state)
		}
		if ev.TimeNs < prevTime {
			t.Errorf("period %d: virtual time went backwards (%d < %d)", i, ev.TimeNs, prevTime)
		}
		prevTime = ev.TimeNs
		if ev.WinFast+ev.WinSlow == 0 {
			t.Errorf("period %d: empty sampling window recorded despite activity", i)
		}
	}
}

// TestSharedTelemetrySetRejected documents that a caller-provided set is
// used as-is (the daemon passes one so it can add its own metrics).
func TestSystemUsesProvidedTelemetrySet(t *testing.T) {
	set := telemetry.NewSet()
	cfg := testSystemConfig()
	cfg.Telemetry = set
	s := NewSystem(cfg)
	if s.Telemetry() != set {
		t.Fatal("System did not adopt the provided telemetry set")
	}
	if s.Policy().Telemetry() != set {
		t.Fatal("policy not wired to the provided telemetry set")
	}
}

// TestWatchdogHealthTransitions drives the extracted watchdog step
// directly on every runtime: a healthy system accumulates no stalls, a
// stalled worker accumulates one stall per check, and recovery stops
// the accumulation while past stalls stay visible. Ahead of that, the
// health surface: Degraded ORs over the agents, a degraded runtime's
// /healthz still answers 200, and draining answers 503.
func TestWatchdogHealthTransitions(t *testing.T) {
	for _, s := range lifecycleCases(t, func(*Config) {}) {
		t.Run(s.name, func(t *testing.T) {
			srv := httptest.NewServer(s.handler)
			defer srv.Close()
			if s.Health().Degraded {
				t.Fatal("fresh runtime reports degraded")
			}
			s.degrade()
			if !s.Health().Degraded {
				t.Fatal("degraded agent not surfaced by Health")
			}
			if code, doc := getHealthz(t, srv); code != 200 || doc["status"] != "degraded" {
				t.Errorf("degraded healthz = %d %v, want 200/degraded", code, doc)
			}
			s.SetDraining(true)
			if code, doc := getHealthz(t, srv); code != 503 || doc["status"] != "draining" || !s.Draining() {
				t.Errorf("draining healthz = %d %v, want 503/draining", code, doc)
			}

			var w watchdogState
			// Healthy: both workers beat between checks.
			s.sampleBeats.Inc()
			s.migrateBeats.Inc()
			s.watchdogCheck(&w)
			h := s.Health()
			if h.SamplingStalls != 0 || h.MigrationStalls != 0 {
				t.Fatalf("healthy: stalls = %d/%d, want 0/0", h.SamplingStalls, h.MigrationStalls)
			}

			// Stalled: no beats across two checks.
			s.watchdogCheck(&w)
			s.watchdogCheck(&w)
			h = s.Health()
			if h.SamplingStalls != 2 || h.MigrationStalls != 2 {
				t.Fatalf("stalled: stalls = %d/%d, want 2/2", h.SamplingStalls, h.MigrationStalls)
			}

			// Recovered: the sampling worker beats again; the migration
			// worker stays stuck. Only the stuck one keeps accumulating.
			s.sampleBeats.Inc()
			s.watchdogCheck(&w)
			h = s.Health()
			if h.SamplingStalls != 2 {
				t.Errorf("recovered: sampling stalls = %d, want 2 (monotonic, no new)", h.SamplingStalls)
			}
			if h.MigrationStalls != 3 {
				t.Errorf("still stuck: migration stalls = %d, want 3", h.MigrationStalls)
			}

			// And a later healthy check adds nothing anywhere.
			s.sampleBeats.Inc()
			s.migrateBeats.Inc()
			s.watchdogCheck(&w)
			h = s.Health()
			if h.SamplingStalls != 2 || h.MigrationStalls != 3 {
				t.Errorf("final: stalls = %d/%d, want 2/3", h.SamplingStalls, h.MigrationStalls)
			}
		})
	}
}
