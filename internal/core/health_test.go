package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// lifecycleCase is one online runtime under the shared lifecycle tests:
// its embedded control loop plus the few hooks that differ per runtime.
type lifecycleCase struct {
	name string
	*controlLoop
	// handler serves the runtime's /healthz.
	handler http.Handler
	// drive feeds every agent traffic so their ticks take the RL path.
	drive func()
	// degrade puts the runtime's last agent into the heuristic fallback.
	degrade func()
	// breakRL drops the first agent's migration Q-table, so its next RL
	// tick panics.
	breakRL func()
	// block runs f while holding the lock the control passes need, so
	// both worker threads stall for as long as f runs.
	block func(f func())
}

// lifecycleCases builds one fresh instance of each online runtime.
// System runs twice: on the two-tier machine and, as "TieredSystem",
// on a 3-tier chain with one agent per boundary.
func lifecycleCases(t *testing.T) []lifecycleCase {
	t.Helper()
	const ps = 64 * 1024
	sys := NewSystem(testSystemConfig())
	multi := NewMultiSystem(testMultiConfig())
	ti := NewSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false))
	underLock := func(mu sync.Locker) func(func()) {
		return func(f func()) {
			mu.Lock()
			defer mu.Unlock()
			f()
		}
	}
	return []lifecycleCase{
		{
			name: "System", controlLoop: sys.controlLoop, handler: sys.ControlHandler(),
			drive: func() {
				for p := uint64(0); p < 32; p++ {
					sys.Access(p*ps, false)
				}
			},
			degrade: func() { underLock(&sys.mu)(func() { sys.pol.degraded = true }) },
			breakRL: func() { underLock(&sys.mu)(func() { sys.pol.qMig = nil }) },
			block:   underLock(&sys.mu),
		},
		{
			name: "MultiSystem", controlLoop: multi.controlLoop, handler: multi.ControlHandler(),
			drive: func() {
				for p := uint64(0); p < 32; p++ {
					multi.Access(0, p*ps, false)
					multi.Access(1, (64+p)*ps, false)
				}
			},
			degrade: func() { underLock(&multi.mu)(func() { multi.agents[1].degraded = true }) },
			breakRL: func() { underLock(&multi.mu)(func() { multi.agents[0].qMig = nil }) },
			block:   underLock(&multi.mu),
		},
		{
			name: "TieredSystem", controlLoop: ti.controlLoop, handler: ti.ControlHandler(),
			drive: func() {
				for p := uint64(0); p < 64; p++ {
					ti.Access(p*ps, false)
				}
			},
			degrade: func() { underLock(&ti.mu)(func() { ti.agents[1].degraded = true }) },
			breakRL: func() { underLock(&ti.mu)(func() { ti.agents[0].qMig = nil }) },
			block:   underLock(&ti.mu),
		},
	}
}

// getHealthz fetches /healthz from a handler-backed test server and
// returns the status code and decoded body.
func getHealthz(t *testing.T, srv *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz body not JSON: %v\n%s", err, body)
	}
	return resp.StatusCode, doc
}

// TestHealthzSchemaPin pins the /healthz document: the exact key set,
// the status values, and the status codes. Load balancers and the CI
// loadtest smoke parse this — adding a key is fine elsewhere, but
// these keys must not change meaning or disappear.
func TestHealthzSchemaPin(t *testing.T) {
	s := NewSystem(testSystemConfig())
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	code, doc := getHealthz(t, srv)
	if code != 200 {
		t.Fatalf("fresh system healthz status code = %d", code)
	}
	want := []string{
		"status", "degraded", "draining",
		"sampling_beats", "migration_beats", "watchdog_stalls", "panics",
	}
	if len(doc) != len(want) {
		t.Errorf("healthz has %d keys, schema pins %d: %v", len(doc), len(want), doc)
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("healthz missing pinned key %q: %v", k, doc)
		}
	}
	if doc["status"] != "ok" || doc["degraded"] != false || doc["draining"] != false {
		t.Errorf("fresh system healthz = %v, want ok/false/false", doc)
	}

	// Heuristic fallback: still 200 (the daemon serves traffic), but
	// the body says degraded.
	s.mu.Lock()
	s.pol.degraded = true
	s.mu.Unlock()
	if code, doc := getHealthz(t, srv); code != 200 || doc["status"] != "degraded" {
		t.Errorf("degraded healthz = %d %v, want 200/degraded", code, doc)
	}

	// Graceful shutdown: 503 so balancers stop routing, and draining
	// wins over degraded in the status string.
	s.SetDraining(true)
	if code, doc := getHealthz(t, srv); code != 503 || doc["status"] != "draining" || doc["draining"] != true {
		t.Errorf("draining healthz = %d %v, want 503/draining", code, doc)
	}
}

// TestHealthzMultiSystem checks the multi-tenant daemon serves the
// same document from its control surface.
func TestHealthzMultiSystem(t *testing.T) {
	s := NewMultiSystem(testMultiConfig())
	srv := httptest.NewServer(s.ControlHandler())
	defer srv.Close()

	code, doc := getHealthz(t, srv)
	if code != 200 || doc["status"] != "ok" {
		t.Fatalf("multi healthz = %d %v, want 200/ok", code, doc)
	}
	s.SetDraining(true)
	if code, doc := getHealthz(t, srv); code != 503 || doc["status"] != "draining" {
		t.Errorf("draining multi healthz = %d %v, want 503/draining", code, doc)
	}
}
