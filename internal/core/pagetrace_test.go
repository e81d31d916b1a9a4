package core

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"artmem/internal/telemetry"
)

// pageTraceSystemConfig enables lifecycle tracing for every page so
// tests can reason about specific pages instead of hash-sampled ones.
func pageTraceSystemConfig() SystemConfig {
	cfg := testSystemConfig()
	cfg.PageTraceSampleRate = 1
	return cfg
}

// drivePromotions allocates the whole footprint, then hammers a band of
// slow-tier pages across several decision periods so the agent promotes
// them. Returns the system for inspection.
func drivePromotions(t *testing.T) *System {
	t.Helper()
	s := NewSystem(pageTraceSystemConfig())
	pageSize := uint64(s.Machine().PageSize())
	// First touch every page: the fast tier fills, the rest overflow.
	for p := uint64(0); p < uint64(s.Machine().NumPages()); p++ {
		s.Access(p*pageSize, false)
	}
	// Hammer a slow-tier band until promotions happen.
	for round := 0; round < 30; round++ {
		for rep := 0; rep < 8; rep++ {
			for p := uint64(20); p < 30; p++ {
				s.Access(p*pageSize, false)
			}
		}
		s.mu.Lock()
		s.pol.Tick(s.m.Now())
		s.mu.Unlock()
		if s.Counters().Promotions > 0 && round > 2 {
			break
		}
	}
	if s.Counters().Promotions == 0 {
		t.Fatal("workload produced no promotions; lifecycle test cannot run")
	}
	return s
}

// TestPageLifecycleReconstruction is the issue's acceptance test: a
// single sampled page's full lifecycle — allocation, PEBS samples, LRU
// transitions, the policy verdict with its reason, and the settled
// migration — is reconstructable from the journal, in order.
func TestPageLifecycleReconstruction(t *testing.T) {
	s := drivePromotions(t)
	pt := s.Telemetry().PageTrace

	// Find a page that settled a slow→fast promotion.
	var page uint64
	var found bool
	for _, e := range pt.Events(0) {
		if e.Kind == telemetry.PageKindMigration &&
			e.Outcome == telemetry.OutcomeSettled && e.To == "fast" {
			page, found = e.Page, true
			break
		}
	}
	if !found {
		t.Fatal("no settled promotion in the journal")
	}

	var tl []telemetry.PageEvent
	for _, e := range pt.Events(0) {
		if e.Page == page {
			tl = append(tl, e)
		}
	}
	if len(tl) < 4 {
		t.Fatalf("page %d timeline has %d events, want a full lifecycle: %+v", page, len(tl), tl)
	}
	var lastSeq uint64
	var lastTime int64 = -1
	kinds := map[string]int{}
	for i, e := range tl {
		if e.Page != page {
			t.Fatalf("timeline event %d belongs to page %d", i, e.Page)
		}
		if e.Seq <= lastSeq {
			t.Errorf("event %d: seq %d not increasing", i, e.Seq)
		}
		if e.TimeNs < lastTime {
			t.Errorf("event %d: virtual time went backwards (%d < %d)", i, e.TimeNs, lastTime)
		}
		lastSeq, lastTime = e.Seq, e.TimeNs
		kinds[e.Kind]++
	}
	// The lifecycle stages the workload must have exercised. (The alloc
	// event may have been ring-evicted only if the ring wrapped; the
	// default capacity comfortably holds this run.)
	for _, k := range []string{
		telemetry.PageKindAlloc, telemetry.PageKindSample,
		telemetry.PageKindLRU, telemetry.PageKindVerdict,
		telemetry.PageKindMigration,
	} {
		if kinds[k] == 0 {
			t.Errorf("page %d lifecycle missing %q events: %+v", page, k, tl)
		}
	}
	if tl[0].Kind != telemetry.PageKindAlloc {
		t.Errorf("lifecycle starts with %q, want alloc", tl[0].Kind)
	}
	// The verdict that qualified the page must precede the settled
	// migration and carry the hotness comparison behind it.
	verdictAt, settledAt := -1, -1
	for i, e := range tl {
		if e.Kind == telemetry.PageKindVerdict && e.Outcome == telemetry.OutcomeQualified && verdictAt < 0 {
			verdictAt = i
			if e.Count < e.Threshold {
				t.Errorf("qualified verdict with count %d < threshold %d", e.Count, e.Threshold)
			}
			if !strings.Contains(e.Reason, "threshold") {
				t.Errorf("verdict reason %q does not explain the comparison", e.Reason)
			}
		}
		if e.Kind == telemetry.PageKindMigration && e.Outcome == telemetry.OutcomeSettled &&
			e.To == "fast" && settledAt < 0 {
			settledAt = i
			if e.From != "slow" {
				t.Errorf("promotion from %q, want slow", e.From)
			}
		}
	}
	if verdictAt < 0 || settledAt < 0 || verdictAt > settledAt {
		t.Errorf("verdict (%d) does not precede settled migration (%d)", verdictAt, settledAt)
	}
}

// TestPageTraceEndpointSchemaPinned pins the exact key set of every
// /pagetrace JSONL record. The schema is fixed (no omitted keys) so
// external consumers — artrace pagetrace among them — can rely on it;
// changing it is a deliberate act: extend this list.
func TestPageTraceEndpointSchemaPinned(t *testing.T) {
	s := drivePromotions(t)
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/pagetrace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	want := []string{
		"seq", "time_ns", "page", "kind", "tier", "from", "to",
		"count", "threshold", "outcome", "reason",
	}
	sort.Strings(want)
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("/pagetrace schema drifted on line %d:\n got  %v\n want %v", lines, keys, want)
		}
	}
	if lines == 0 {
		t.Fatal("empty /pagetrace")
	}
}

func TestPageTraceEndpointFilterAndErrors(t *testing.T) {
	s := drivePromotions(t)
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	// Pick any journaled page and filter to it.
	page := s.Telemetry().PageTrace.Events(1)[0].Page
	resp, err := srv.Client().Get(srv.URL + "/pagetrace?page=" + jsonNum(page))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var e telemetry.PageEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Page != page {
			t.Errorf("filtered response contains page %d, want only %d", e.Page, page)
		}
		n++
	}
	if n == 0 {
		t.Error("page filter returned nothing")
	}

	for _, q := range []string{"?n=bogus", "?n=-1", "?page=bogus", "?page=-2"} {
		resp, err := srv.Client().Get(srv.URL + "/pagetrace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("/pagetrace%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestPageTraceDisabledByDefault: without a sample rate the endpoint
// 404s and the hooks stay unwired.
func TestPageTraceDisabledByDefault(t *testing.T) {
	s := NewSystem(testSystemConfig())
	if s.Telemetry().PageTrace != nil {
		t.Fatal("page trace enabled without opting in")
	}
	for i := 0; i < 3; i++ {
		tickOnce(s)
	}
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/pagetrace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/pagetrace status = %d, want 404 when disabled", resp.StatusCode)
	}
}

// TestQTableEndpointSchemaPinned pins the /qtable JSON schema: the
// report's top-level keys and the per-table snapshot keys.
func TestQTableEndpointSchemaPinned(t *testing.T) {
	s := NewSystem(testSystemConfig())
	for i := 0; i < 5; i++ {
		tickOnce(s)
	}
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/qtable")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatal(err)
	}
	wantTop := []string{
		"policy", "k", "states", "no_sample_state", "current_state",
		"current_threshold", "min_threshold", "beta", "degraded",
		"decisions", "migration_pages", "threshold_deltas",
		"migration", "threshold",
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Strings(wantTop)
	if strings.Join(keys, ",") != strings.Join(wantTop, ",") {
		t.Errorf("/qtable schema drifted:\n got  %v\n want %v", keys, wantTop)
	}

	wantSnap := []string{
		"states", "actions", "algorithm", "alpha", "gamma", "epsilon",
		"updates", "q", "visits", "explorations", "greedy",
		"mean_reward", "reward_count",
	}
	sort.Strings(wantSnap)
	for _, table := range []string{"migration", "threshold"} {
		var snap map[string]json.RawMessage
		if err := json.Unmarshal(obj[table], &snap); err != nil {
			t.Fatalf("%s table: %v", table, err)
		}
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(wantSnap, ",") {
			t.Errorf("/qtable %s snapshot schema drifted:\n got  %v\n want %v", table, keys, wantSnap)
		}
	}

	// Decode the full report and cross-check it against the live agent.
	var rep QTableReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.States != rep.K+2 || rep.NoSampleState != rep.K+1 {
		t.Errorf("state layout: states=%d no_sample=%d k=%d", rep.States, rep.NoSampleState, rep.K)
	}
	if rep.Decisions != 5 {
		t.Errorf("decisions = %d, want 5", rep.Decisions)
	}
	if len(rep.Migration.Q) != rep.States || len(rep.Migration.Q[0]) != len(rep.MigrationPages) {
		t.Errorf("migration table %dx%d does not match %d states x %d actions",
			len(rep.Migration.Q), len(rep.Migration.Q[0]), rep.States, len(rep.MigrationPages))
	}
	if len(rep.ThresholdTable.Q[0]) != len(rep.ThresholdDeltas) {
		t.Errorf("threshold table has %d actions, want %d",
			len(rep.ThresholdTable.Q[0]), len(rep.ThresholdDeltas))
	}
	var visits uint64
	for _, v := range rep.Migration.Visits {
		visits += v
	}
	if visits == 0 {
		t.Error("no state visits recorded after 5 decision periods")
	}
}

// TestTraceEventSchemaPinned pins the /trace decision-record key set —
// the JSONL contract artrace and artmon consume.
func TestTraceEventSchemaPinned(t *testing.T) {
	s := NewSystem(testSystemConfig())
	tickOnce(s)
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var obj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	// "detail" is omitempty and absent on decision events.
	want := []string{
		"seq", "time_ns", "kind", "state", "reward", "quota",
		"threshold_delta", "threshold", "attempted", "promoted",
		"failed", "rolled_back", "win_fast", "win_slow", "degraded",
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Strings(want)
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("/trace schema drifted:\n got  %v\n want %v", keys, want)
	}
}
