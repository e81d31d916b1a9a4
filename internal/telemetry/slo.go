package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Per-tenant SLO monitoring over the serving path. Each tenant slot
// carries an SLOObjective — a latency target ("99% of batches ack
// within 2ms") and a loss target ("99.9% of accepted batches ack at
// all") — and the monitor folds every batch outcome into per-window
// rolling counters. The exposed signal is the SRE-style *burn rate*:
// the observed bad fraction divided by the objective's error budget,
// computed over several windows at once (multi-window burn-rate
// alerting) so a consumer can distinguish a fast burn (1-minute window
// far above 1: page now) from a slow leak (only the 30-minute window
// elevated: budget erodes but nothing is on fire). Burn 1.0 means the
// budget is being consumed exactly as fast as the objective allows.
//
// The clock is injected: the daemon runs the monitor on wall time,
// deterministic experiments on the machine's virtual clock, so burn
// rates in `exp latency` are exact reproducible ratios.

// SLOObjective is one tenant's service-level objective.
type SLOObjective struct {
	// Class is the display name of the SLO class ("latency", "batch").
	Class string `json:"class"`
	// LatencyNs is the per-batch end-to-end latency objective; a batch
	// acked slower than this breaches the latency SLI.
	LatencyNs int64 `json:"latency_objective_ns"`
	// LatencyTarget is the fraction of batches that must meet LatencyNs
	// (0.99 = 1% error budget).
	LatencyTarget float64 `json:"latency_target"`
	// LossTarget is the fraction of accepted batches that must ack at
	// all (rejections after queueing count against it).
	LossTarget float64 `json:"loss_target"`
}

// LatencySLO returns the default objective for the latency class:
// tight tail latency, near-zero loss.
func LatencySLO() SLOObjective {
	return SLOObjective{Class: "latency", LatencyNs: 2_000_000, LatencyTarget: 0.99, LossTarget: 0.999}
}

// BatchSLO returns the default objective for the batch (throughput)
// class: latency slack, modest loss budget.
func BatchSLO() SLOObjective {
	return SLOObjective{Class: "batch", LatencyNs: 50_000_000, LatencyTarget: 0.95, LossTarget: 0.99}
}

// DefaultSLOWindows are the burn-rate windows in clock nanoseconds:
// 1 minute (fast burn), 5 minutes, 30 minutes (slow leak).
var DefaultSLOWindows = []int64{
	int64(time.Minute), int64(5 * time.Minute), int64(30 * time.Minute),
}

// sloBuckets is the rolling resolution per window: each window is a
// ring of this many fixed-width buckets, so expiry is O(1) per observe
// and a report is one pass over 60 integers.
const sloBuckets = 60

// sloBucket is one fixed-width time slice of a window's counters.
// epoch is the absolute bucket index it currently holds; a stale epoch
// is reset on first touch rather than by a background sweeper.
type sloBucket struct {
	epoch int64
	total uint64
	slow  uint64
	lost  uint64
}

// sloWindow is one rolling window of a tenant's SLI counters.
type sloWindow struct {
	windowNs int64
	widthNs  int64
	buckets  [sloBuckets]sloBucket
}

// sloTenant is one slot's objective plus its window rings.
type sloTenant struct {
	obj     SLOObjective
	windows []sloWindow
}

// SLOMonitor folds batch outcomes into per-tenant multi-window burn
// rates. A nil *SLOMonitor is a no-op on every method, so the serving
// path hooks cost one branch when SLO monitoring is disabled. Safe for
// concurrent use; Observe is per batch (not per record), so a mutex is
// cheap relative to the work each batch represents.
type SLOMonitor struct {
	clock    func() int64
	windowNs []int64

	mu      sync.Mutex
	tenants []sloTenant
}

// NewSLOMonitor returns a monitor for len(objectives) tenant slots.
// windows nil uses DefaultSLOWindows; clock nil uses wall time
// (deterministic experiments inject the virtual clock).
func NewSLOMonitor(objectives []SLOObjective, windows []int64, clock func() int64) *SLOMonitor {
	if len(windows) == 0 {
		windows = DefaultSLOWindows
	}
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	m := &SLOMonitor{clock: clock, windowNs: append([]int64(nil), windows...)}
	m.tenants = make([]sloTenant, len(objectives))
	for i, obj := range objectives {
		m.tenants[i] = newSLOTenant(obj, m.windowNs)
	}
	return m
}

// newSLOTenant builds one slot's rings.
func newSLOTenant(obj SLOObjective, windows []int64) sloTenant {
	t := sloTenant{obj: obj, windows: make([]sloWindow, len(windows))}
	for i, w := range windows {
		width := w / sloBuckets
		if width < 1 {
			width = 1
		}
		t.windows[i] = sloWindow{windowNs: w, widthNs: width}
	}
	return t
}

// SetObjective replaces slot's objective and resets its counters — the
// runtime-registration hook (a slot re-registered under a different
// SLO class starts a fresh budget). Out-of-range slots are ignored.
// Nil-safe.
func (m *SLOMonitor) SetObjective(slot int, obj SLOObjective) {
	if m == nil || slot < 0 {
		return
	}
	m.mu.Lock()
	if slot < len(m.tenants) {
		m.tenants[slot] = newSLOTenant(obj, m.windowNs)
	}
	m.mu.Unlock()
}

// Observe folds one resolved batch into slot's windows: acked reports
// whether the batch was applied (false counts against the loss
// budget), latNs its end-to-end latency when acked. Out-of-range slots
// are ignored. Nil-safe.
func (m *SLOMonitor) Observe(slot int, latNs int64, acked bool) {
	if m == nil || slot < 0 {
		return
	}
	m.mu.Lock()
	if slot >= len(m.tenants) {
		m.mu.Unlock()
		return
	}
	t := &m.tenants[slot]
	now := m.clock()
	for i := range t.windows {
		w := &t.windows[i]
		idx := now / w.widthNs
		b := &w.buckets[idx%sloBuckets]
		if b.epoch != idx {
			*b = sloBucket{epoch: idx}
		}
		b.total++
		if !acked {
			b.lost++
		} else if latNs > t.obj.LatencyNs {
			b.slow++
		}
	}
	m.mu.Unlock()
}

// SLOWindowReport is one window's aggregated SLI counters and burn
// rates in an SLOReport. The field set is fixed (no omitted keys) so
// the /slo schema is stable for external consumers.
type SLOWindowReport struct {
	// WindowNs is the window length in clock nanoseconds.
	WindowNs int64 `json:"window_ns"`
	// Batches is the number of batches resolved inside the window;
	// LatencyBreaches the subset acked slower than the objective; Lost
	// the subset rejected after queueing.
	Batches         uint64 `json:"batches"`
	LatencyBreaches uint64 `json:"latency_breaches"`
	Lost            uint64 `json:"lost"`
	// LatencyBurn and LossBurn are the window's error-budget burn
	// rates: observed bad fraction over budgeted bad fraction, 1.0 =
	// burning exactly at budget.
	LatencyBurn float64 `json:"latency_burn"`
	LossBurn    float64 `json:"loss_burn"`
}

// SLOTenantReport is one tenant slot's entry in an SLOReport.
type SLOTenantReport struct {
	Slot int `json:"slot"`
	SLOObjective
	Windows []SLOWindowReport `json:"windows"`
}

// SLOReport is the JSON document served at /slo.
type SLOReport struct {
	// NowNs is the monitor clock at report time.
	NowNs int64 `json:"now_ns"`
	// WindowsNs lists the configured burn windows, shortest first.
	WindowsNs []int64 `json:"windows_ns"`
	// Tenants holds one entry per slot, in slot order.
	Tenants []SLOTenantReport `json:"tenants"`
}

// burn returns bad/total scaled by the inverse error budget.
func burn(bad, total uint64, target float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9 // a 100% target has no budget; any breach burns hard
	}
	return float64(bad) / float64(total) / budget
}

// Report aggregates every tenant's windows at the current clock.
// Nil-safe: a nil monitor reports an empty document.
func (m *SLOMonitor) Report() SLOReport {
	if m == nil {
		return SLOReport{Tenants: []SLOTenantReport{}, WindowsNs: []int64{}}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	rep := SLOReport{
		NowNs:     now,
		WindowsNs: append([]int64(nil), m.windowNs...),
		Tenants:   make([]SLOTenantReport, len(m.tenants)),
	}
	for slot := range m.tenants {
		t := &m.tenants[slot]
		tr := SLOTenantReport{Slot: slot, SLOObjective: t.obj, Windows: make([]SLOWindowReport, len(t.windows))}
		for i := range t.windows {
			w := &t.windows[i]
			idx := now / w.widthNs
			var wr SLOWindowReport
			wr.WindowNs = w.windowNs
			for b := range w.buckets {
				bk := &w.buckets[b]
				if bk.epoch > idx-sloBuckets && bk.epoch <= idx {
					wr.Batches += bk.total
					wr.LatencyBreaches += bk.slow
					wr.Lost += bk.lost
				}
			}
			wr.LatencyBurn = burn(wr.LatencyBreaches, wr.Batches, t.obj.LatencyTarget)
			wr.LossBurn = burn(wr.Lost, wr.Batches, t.obj.LossTarget)
			tr.Windows[i] = wr
		}
		rep.Tenants[slot] = tr
	}
	return rep
}

// WriteJSON writes the current report as one JSON document — the /slo
// response body.
func (m *SLOMonitor) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m.Report())
}
