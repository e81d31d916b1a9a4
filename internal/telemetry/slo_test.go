package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// testClock is a hand-advanced virtual clock for SLO tests.
type testClock struct{ now int64 }

func (c *testClock) fn() func() int64 { return func() int64 { return c.now } }

func TestSLOMonitorNilIsNoOp(t *testing.T) {
	var m *SLOMonitor
	m.Observe(0, 100, true)
	m.SetObjective(0, LatencySLO())
	rep := m.Report()
	if len(rep.Tenants) != 0 || rep.Tenants == nil {
		t.Fatalf("nil monitor report = %+v, want empty non-nil tenants", rep)
	}
}

func TestSLOBurnRates(t *testing.T) {
	clk := &testClock{now: 1}
	obj := SLOObjective{Class: "latency", LatencyNs: 1000, LatencyTarget: 0.99, LossTarget: 0.99}
	m := NewSLOMonitor([]SLOObjective{obj}, []int64{int64(time.Minute)}, clk.fn())
	// 100 batches: 2 slow, 1 lost.
	for i := 0; i < 97; i++ {
		m.Observe(0, 500, true)
	}
	m.Observe(0, 2000, true)
	m.Observe(0, 5000, true)
	m.Observe(0, 0, false)
	rep := m.Report()
	if len(rep.Tenants) != 1 {
		t.Fatalf("tenants = %d, want 1", len(rep.Tenants))
	}
	w := rep.Tenants[0].Windows[0]
	if w.Batches != 100 || w.LatencyBreaches != 2 || w.Lost != 1 {
		t.Fatalf("window = %+v, want 100 batches / 2 breaches / 1 lost", w)
	}
	// 2% slow against a 1% budget burns at 2x; 1% lost against 1% at 1x.
	if math.Abs(w.LatencyBurn-2.0) > 1e-9 {
		t.Fatalf("latency burn = %v, want 2.0", w.LatencyBurn)
	}
	if math.Abs(w.LossBurn-1.0) > 1e-9 {
		t.Fatalf("loss burn = %v, want 1.0", w.LossBurn)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clk := &testClock{now: 1}
	windows := []int64{int64(time.Minute), int64(30 * time.Minute)}
	m := NewSLOMonitor([]SLOObjective{BatchSLO()}, windows, clk.fn())
	m.Observe(0, 1, true)
	// Advance past the 1-minute window but stay inside 30 minutes: the
	// short window forgets the batch, the long one still holds it.
	clk.now += int64(2 * time.Minute)
	m.Observe(0, 1, true)
	rep := m.Report()
	short, long := rep.Tenants[0].Windows[0], rep.Tenants[0].Windows[1]
	if short.Batches != 1 {
		t.Fatalf("1m window holds %d batches, want 1 (expiry failed)", short.Batches)
	}
	if long.Batches != 2 {
		t.Fatalf("30m window holds %d batches, want 2", long.Batches)
	}
}

func TestSLOSetObjectiveResetsBudget(t *testing.T) {
	clk := &testClock{now: 1}
	m := NewSLOMonitor([]SLOObjective{BatchSLO()}, []int64{int64(time.Minute)}, clk.fn())
	m.Observe(0, 1, false)
	m.SetObjective(0, LatencySLO())
	rep := m.Report()
	if got := rep.Tenants[0].Windows[0].Batches; got != 0 {
		t.Fatalf("re-registered slot still holds %d batches", got)
	}
	if rep.Tenants[0].Class != "latency" {
		t.Fatalf("class = %q, want latency", rep.Tenants[0].Class)
	}
	m.SetObjective(9, LatencySLO()) // out of range: ignored
	m.Observe(9, 1, true)           // out of range: ignored
}

// TestSLOReportSchema pins the /slo JSON document: key set and
// structure stay stable for external consumers.
func TestSLOReportSchema(t *testing.T) {
	clk := &testClock{now: 1}
	m := NewSLOMonitor([]SLOObjective{LatencySLO()}, []int64{int64(time.Minute)}, clk.fn())
	m.Observe(0, 1, true)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"now_ns", "windows_ns", "tenants"} {
		if _, ok := doc[k]; !ok {
			t.Fatalf("/slo missing pinned key %q", k)
		}
	}
	tenants := doc["tenants"].([]any)
	ten := tenants[0].(map[string]any)
	for _, k := range []string{"slot", "class", "latency_objective_ns", "latency_target", "loss_target", "windows"} {
		if _, ok := ten[k]; !ok {
			t.Fatalf("/slo tenant missing pinned key %q", k)
		}
	}
	win := ten["windows"].([]any)[0].(map[string]any)
	want := []string{"window_ns", "batches", "latency_breaches", "lost", "latency_burn", "loss_burn"}
	if len(win) != len(want) {
		t.Fatalf("window has %d keys, want %d: %v", len(win), len(want), win)
	}
	for _, k := range want {
		if _, ok := win[k]; !ok {
			t.Fatalf("/slo window missing pinned key %q", k)
		}
	}
}
