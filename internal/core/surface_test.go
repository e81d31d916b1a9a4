package core

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"artmem/internal/telemetry"
)

// metricSeries scrapes h's /metrics and returns every sample's series
// key (name plus label set), sorted and deduplicated. Histogram bucket
// bounds follow the machine's latency classes, so le values collapse to
// le="*": the pin is on the series and their label keys, not the
// latency model.
func metricSeries(t *testing.T, srv *httptest.Server) []string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	le := regexp.MustCompile(`([{,])le="[^"]*"`)
	seen := map[string]bool{}
	var keys []string
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := le.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], `${1}le="*"`)
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestSystemMetricsSeriesPinned pins the exact /metrics series set of
// a one-boundary System — names and label sets. The two-tier surface is
// what dashboards, artmon's classic panel, and the serve benchmark
// read, so a series appearing, disappearing, or changing labels must
// fail loudly; TestStatsSchemaPinned does the same for /stats.
func TestSystemMetricsSeriesPinned(t *testing.T) {
	s := NewSystem(testSystemConfig())
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()
	want := []string{
		`artmem_access_latency_ns_bucket{le="*"}`,
		`artmem_access_latency_ns_count`,
		`artmem_access_latency_ns_sum`,
		`artmem_accesses_total{tier="fast"}`,
		`artmem_accesses_total{tier="slow"}`,
		`artmem_background_cpu_ns`,
		`artmem_cache_hits_total`,
		`artmem_control_busy_ns_total`,
		`artmem_cooling_resets_total`,
		`artmem_decisions_total`,
		`artmem_degraded`,
		`artmem_degraded_entries_total`,
		`artmem_degraded_ticks_total`,
		`artmem_demotions_total`,
		`artmem_lru_pages{list="fast_active"}`,
		`artmem_lru_pages{list="fast_inactive"}`,
		`artmem_lru_pages{list="slow_active"}`,
		`artmem_lru_pages{list="slow_inactive"}`,
		`artmem_migrated_bytes_total`,
		`artmem_migration_beats_total`,
		`artmem_migration_failures_total`,
		`artmem_migration_retries_total`,
		`artmem_migration_rollbacks_total`,
		`artmem_migration_skips_total`,
		`artmem_migration_stalls_total`,
		`artmem_migrations_total`,
		`artmem_numa_faults_total`,
		`artmem_pebs_pending_samples`,
		`artmem_pebs_samples_dropped_total`,
		`artmem_pebs_samples_injected_drops_total`,
		`artmem_pebs_samples_total`,
		`artmem_pebs_sampling_period`,
		`artmem_promotions_total`,
		`artmem_rl_epsilon`,
		`artmem_rl_explorations_total{table="migration"}`,
		`artmem_rl_explorations_total{table="threshold"}`,
		`artmem_rl_updates_total{table="migration"}`,
		`artmem_rl_updates_total{table="threshold"}`,
		`artmem_sampling_beats_total`,
		`artmem_sampling_stalls_total`,
		`artmem_state`,
		`artmem_threshold`,
		`artmem_tier_capacity_pages{tier="fast"}`,
		`artmem_tier_capacity_pages{tier="slow"}`,
		`artmem_tier_full_stops_total`,
		`artmem_tier_pages{tier="fast"}`,
		`artmem_tier_pages{tier="slow"}`,
		`artmem_virtual_clock_ns`,
		`artmem_worker_panics_total`,
	}
	sort.Strings(want)
	if got := metricSeries(t, srv); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics series drifted:\n got:\n%s\n want:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestChainTraceMergedByTime checks /trace on a 3-tier System: the
// boundary agents' rings merge into one stream ordered by virtual time,
// holding every decision of both boundaries, and ?n= keeps the newest.
func TestChainTraceMergedByTime(t *testing.T) {
	s := NewSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false))
	const periods = 6
	for i := 0; i < periods; i++ {
		for p := uint64(0); p < 64; p++ {
			s.Access(p*64*1024, false)
		}
		tieredTick(s)
	}
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	events := getTrace(t, srv, "")
	if want := len(s.Agent(0).Telemetry().Trace.Events(0)) + len(s.Agent(1).Telemetry().Trace.Events(0)); len(events) != want {
		t.Fatalf("/trace has %d events, the two rings hold %d", len(events), want)
	}
	decisions := 0
	for i, ev := range events {
		if i > 0 && ev.TimeNs < events[i-1].TimeNs {
			t.Errorf("event %d at %d ns after one at %d ns", i, ev.TimeNs, events[i-1].TimeNs)
		}
		if ev.Kind == telemetry.KindDecision {
			decisions++
		}
	}
	if decisions != 2*periods {
		t.Errorf("%d decision events, want %d from each of 2 boundaries", decisions, periods)
	}
	if tail := getTrace(t, srv, "?n=3"); len(tail) != 3 || tail[2] != events[len(events)-1] {
		t.Errorf("/trace?n=3 = %v, want the newest 3 of %d", tail, len(events))
	}
}

// getTrace fetches /trace plus query and decodes its JSONL lines.
func getTrace(t *testing.T, srv *httptest.Server, query string) []telemetry.Event {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []telemetry.Event
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestChainSystemSurface pins what a chain adds to, and withholds from,
// the one-boundary surface: /tiers is served only with more than one
// boundary, /stats keeps the System key set, and the one-agent
// features — Q-table checkpoints and page tracing — are refused.
func TestChainSystemSurface(t *testing.T) {
	get := func(srv *httptest.Server, path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	two := httptest.NewServer(NewSystem(testSystemConfig()).ControlHandler())
	defer two.Close()
	if code := get(two, "/tiers"); code != 404 {
		t.Errorf("two-tier /tiers = %d, want 404", code)
	}

	chain := NewSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", true))
	srv := httptest.NewServer(chain.ControlHandler())
	defer srv.Close()
	if code := get(srv, "/tiers"); code != 200 {
		t.Errorf("chain /tiers = %d, want 200", code)
	}
	if rep := chain.TiersStatus(); len(rep.Tiers) != 3 || len(rep.Boundaries) != 2 {
		t.Errorf("TiersStatus has %d tiers and %d boundaries, want 3 and 2",
			len(rep.Tiers), len(rep.Boundaries))
	}
	if got, want := statsKeys(t, srv), statsKeys(t, two); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("chain /stats keys %v, two-tier %v", got, want)
	}

	path := filepath.Join(t.TempDir(), "q.bin")
	if err := chain.SaveQTablesFile(path); err == nil {
		t.Error("SaveQTablesFile on a 2-boundary system succeeded")
	}
	if err := chain.RestoreQTablesFile(path); err == nil {
		t.Error("RestoreQTablesFile on a 2-boundary system succeeded")
	}

	defer func() {
		if recover() == nil {
			t.Error("NewSystem traced pages on a 2-boundary machine")
		}
	}()
	cfg := testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false)
	cfg.PageTraceSampleRate = 1
	NewSystem(cfg)
}

// statsKeys fetches /stats and returns its sorted key set.
func statsKeys(t *testing.T, srv *httptest.Server) []string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
