package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Event kinds recorded in the decision trace.
const (
	// KindDecision is one RL period: the agent observed a state, updated
	// its tables, chose actions, and migrated.
	KindDecision = "decision"
	// KindDegraded marks a transition into the heuristic fallback mode.
	KindDegraded = "degraded"
	// KindReengaged marks RL re-engagement after a degraded stretch.
	KindReengaged = "reengaged"
	// KindFault records a resilience incident outside the regular
	// decision cadence (e.g. a tier-full stop or a rollback storm).
	KindFault = "fault"
	// KindCooling records an EMA cooling event with its threshold reset.
	KindCooling = "cooling"
)

// Event is one structured decision-trace record. Decision events carry
// the full RL tuple; other kinds fill the fields that apply and leave
// the rest zero. TimeNs is the simulator's virtual clock, so a trace
// replays identically across real-time jitter.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_ns"`
	Kind   string `json:"kind"`

	// RL tuple for the period.
	State  int     `json:"state"`
	Reward float64 `json:"reward"`
	// Quota is the migration number chosen (pages); ThresholdDelta the
	// chosen threshold adjustment; Threshold the resulting threshold.
	Quota          int    `json:"quota"`
	ThresholdDelta int    `json:"threshold_delta"`
	Threshold      uint32 `json:"threshold"`

	// Migration outcome of the period.
	Attempted  int `json:"attempted"`
	Promoted   int `json:"promoted"`
	Failed     int `json:"failed"`
	RolledBack int `json:"rolled_back"`

	// Signal and mode.
	WinFast  uint64 `json:"win_fast"`
	WinSlow  uint64 `json:"win_slow"`
	Degraded bool   `json:"degraded"`

	// Detail carries free-form context for fault/cooling events.
	Detail string `json:"detail,omitempty"`
}

// DefaultTraceCap is the default decision-trace ring capacity: at the
// daemon's 10ms decision period this holds ~40s of history in ~1MB.
const DefaultTraceCap = 4096

// Trace is a bounded ring of Events. Appends are O(1) and evict the
// oldest event once the ring is full; reads snapshot in order. Safe for
// concurrent use — the online runtime appends under its own lock while
// HTTP handlers drain.
type Trace struct {
	mu    sync.Mutex
	buf   []Event
	head  int // next slot to write
	count int
	seq   uint64 // total events ever appended
}

// NewTrace returns a trace ring holding up to capacity events
// (DefaultTraceCap if capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Append records e, stamping its sequence number. The oldest event is
// evicted when the ring is full. Nil-safe.
func (t *Trace) Append(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.buf[t.head] = e
	t.head = (t.head + 1) % len(t.buf)
	if t.count < len(t.buf) {
		t.count++
	}
	t.mu.Unlock()
}

// Total returns the number of events ever appended (retained or
// evicted).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns up to n of the most recent events, oldest first
// (n <= 0 returns everything retained). The slice is a copy.
func (t *Trace) Events(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.count {
		n = t.count
	}
	out := make([]Event, n)
	start := t.head - n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	return out
}

// WriteJSONL writes up to n of the most recent events (oldest first) as
// one JSON object per line — the drain format served by /trace.
func (t *Trace) WriteJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events(n) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Set bundles the registry and decision trace that one runtime owns —
// the unit of telemetry a System, a standalone policy, or a test wires
// through the stack.
type Set struct {
	Registry *Registry
	Trace    *Trace
	// PageTrace, when non-nil, enables page-lifecycle tracing for a
	// hash-sampled page subset (see pagetrace.go). Nil — the default —
	// keeps every lifecycle hook a one-branch no-op.
	PageTrace *PageTrace
}

// NewSet returns a fresh registry plus a default-capacity trace. Page
// tracing stays disabled; callers opt in by assigning Set.PageTrace.
func NewSet() *Set {
	return &Set{Registry: NewRegistry(), Trace: NewTrace(DefaultTraceCap)}
}
