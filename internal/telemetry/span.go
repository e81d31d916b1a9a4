package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Serving latency attribution: a span journal for a deterministic
// hash-sampled subset of accepted request batches. Where the page trace
// (pagetrace.go) follows one *page* through its lifecycle, a span
// follows one *batch* through the serving pipeline and splits its
// end-to-end latency into the stages a batch actually passes through:
// frame decode, ingress-queue wait, coalesce merge, backend apply,
// migration stall attributed from the core control loop, and ack
// flush. Stage timestamps come from the server's injected clock, so in
// lockstep mode every duration is a deterministic virtual-clock
// integer and a replay yields an identical journal.
//
// Cost model: the same discipline as PageTrace — off by default (a nil
// *SpanJournal makes every hook a single predictable branch), and when
// on, the deterministic hash sampler keeps the recorded subset small
// (1/64 of batches by default) so the journal stays cheap and bounded.

// Span outcomes.
const (
	// SpanAcked: every record in the batch was applied.
	SpanAcked = "acked"
	// SpanRejected: the batch was rejected after queueing (its tenant
	// slot stopped taking traffic between submit and pump); the apply
	// stages are zero.
	SpanRejected = "rejected"
)

// Span is one batch's reconstructed latency attribution. The field set
// is fixed (no omitted keys) so the JSONL schema served by /spans is
// stable for external consumers; stages that do not apply to an
// outcome are zero.
type Span struct {
	// Seq is the journal sequence number, Batch the server-global
	// accepted-batch id the sampler keyed on.
	Seq   uint64 `json:"seq"`
	Batch uint64 `json:"batch"`
	// StartNs is the batch's enqueue timestamp on the server clock.
	StartNs int64 `json:"start_ns"`
	// Tenant is the slot the batch was submitted to, ClientSeq the
	// client's sequence number echoed on its ack.
	Tenant    int    `json:"tenant"`
	ClientSeq uint64 `json:"client_seq"`
	// Records is the batch's record count; Outcome is acked or rejected.
	Records int    `json:"records"`
	Outcome string `json:"outcome"`
	// Stage durations in clock nanoseconds. Decode is the wire-frame
	// decode (zero for direct Submit callers); Queue the ingress-queue
	// residency minus attributed stall; Stall the share of residency
	// the core control loop spent holding the machine lock (migration
	// interference); Coalesce the dequeue-to-apply merge; Apply the
	// coalesced backend pass the batch rode (shared by every batch in
	// the pass); Ack the done-callback flush after the pass.
	DecodeNs   int64 `json:"decode_ns"`
	QueueNs    int64 `json:"queue_ns"`
	StallNs    int64 `json:"stall_ns"`
	CoalesceNs int64 `json:"coalesce_ns"`
	ApplyNs    int64 `json:"apply_ns"`
	AckNs      int64 `json:"ack_ns"`
}

// TotalNs returns the span's end-to-end latency: the sum of its stage
// durations.
func (s Span) TotalNs() int64 {
	return s.DecodeNs + s.QueueNs + s.StallNs + s.CoalesceNs + s.ApplyNs + s.AckNs
}

// DefaultSpanCap is the default span-journal ring capacity.
const DefaultSpanCap = 8192

// DefaultSpanSampleRate records one batch in 64 — the same overhead
// budget as page tracing: cheap enough to leave on under load, dense
// enough that every stage shows up within seconds of traffic.
const DefaultSpanSampleRate = 64

// SpanJournal is a bounded ring of Spans for a hash-sampled subset of
// accepted batches. A nil *SpanJournal is a no-op on every method, so
// serving-path hooks cost one branch when spans are disabled. Safe for
// concurrent use.
type SpanJournal struct {
	mask uint64 // batch sampled when mixed hash & mask == 0; immutable
	rate int

	mu    sync.Mutex
	buf   []Span
	head  int
	count int
	seq   uint64
}

// NewSpanJournal returns a journal holding up to capacity spans
// (DefaultSpanCap if capacity <= 0) for roughly one batch in
// sampleRate (rounded up to a power of two; <= 1 records every batch).
func NewSpanJournal(capacity, sampleRate int) *SpanJournal {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	if sampleRate < 1 {
		sampleRate = 1
	}
	pow := 1
	for pow < sampleRate {
		pow <<= 1
	}
	return &SpanJournal{
		mask: uint64(pow - 1),
		rate: pow,
		buf:  make([]Span, capacity),
	}
}

// Rate returns the sampling rate (1 recorded batch per Rate batches).
func (j *SpanJournal) Rate() int {
	if j == nil {
		return 0
	}
	return j.rate
}

// Sampled reports whether the batch id belongs to the recorded subset.
// It is the submit-path guard: a multiply, a shift, and a compare, with
// no locking (the mask is immutable after construction). Nil-safe: a
// nil journal samples nothing.
func (j *SpanJournal) Sampled(batch uint64) bool {
	if j == nil {
		return false
	}
	// Fibonacci-style mixing spreads consecutive batch ids across the
	// hash space so the sampled subset is not one contiguous run.
	h := batch * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h&j.mask == 0
}

// Append records s, stamping its sequence number. Callers guard with
// Sampled so unsampled batches never assemble a span. Nil-safe.
func (j *SpanJournal) Append(s Span) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	s.Seq = j.seq
	j.buf[j.head] = s
	j.head = (j.head + 1) % len(j.buf)
	if j.count < len(j.buf) {
		j.count++
	}
	j.mu.Unlock()
}

// Total returns the number of spans ever appended.
func (j *SpanJournal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Spans returns up to n of the most recent spans, oldest first (n <= 0
// returns everything retained). The slice is a copy.
func (j *SpanJournal) Spans(n int) []Span {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > j.count {
		n = j.count
	}
	out := make([]Span, n)
	start := j.head - n
	if start < 0 {
		start += len(j.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = j.buf[(start+i)%len(j.buf)]
	}
	return out
}

// WriteJSONL writes up to n of the most recent spans (oldest first) as
// one JSON object per line — the format served by /spans. A
// non-negative tenant filters to that slot's batches.
func (j *SpanJournal) WriteJSONL(w io.Writer, n int, tenant int) error {
	enc := json.NewEncoder(w)
	for _, s := range j.Spans(n) {
		if tenant >= 0 && s.Tenant != tenant {
			continue
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
