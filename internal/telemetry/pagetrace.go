package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Page-lifecycle tracing: a span-style journal for a deterministic
// hash-sampled subset of pages. Where the decision trace (trace.go)
// answers "what did the agent do this period", the page trace answers
// "what happened to *this page*": when it was first touched, when PEBS
// sampled it, how it moved between the recency lists, what verdict the
// policy reached about it (and why), and how its migration went —
// attempt, retry, rollback, settled tier.
//
// Cost model: tracing is off by default (a nil *PageTrace makes every
// hook a single predictable branch), and when on, the deterministic
// hash sampler keeps the traced subset small (1/64 of pages by
// default) so the journal stays cheap and bounded while still catching
// complete lifecycles — the same pages are selected on every run, so a
// deterministic replay yields an identical journal.

// PageEvent kinds, in rough lifecycle order.
const (
	// PageKindAlloc is the page's first touch (allocation + placement).
	PageKindAlloc = "alloc"
	// PageKindSample is a PEBS sample recorded for the page.
	PageKindSample = "sample"
	// PageKindLRU is a transition between recency lists.
	PageKindLRU = "lru"
	// PageKindVerdict is a policy decision about the page (promotion
	// candidate accepted or rejected), with the reason.
	PageKindVerdict = "verdict"
	// PageKindMigration is a migration attempt outcome: settled,
	// busy, tier_full, skipped, or rolled_back.
	PageKindMigration = "migration"
	// PageKindFree is the page's unallocation during tenant
	// reclamation (drain); Tier records where it was resident.
	PageKindFree = "free"
)

// PageEvent outcomes for verdict and migration events.
const (
	// OutcomeQualified: the page met the hotness threshold and was
	// picked as a promotion candidate.
	OutcomeQualified = "qualified"
	// OutcomeRejected: the page was inspected but fell below the
	// hotness threshold.
	OutcomeRejected = "rejected"
	// OutcomeSettled: the migration succeeded; To is the settled tier.
	OutcomeSettled = "settled"
	// OutcomeDiscarded: a demotion completed as a free discard onto the
	// page's clean shadow copy (non-exclusive migration; no transfer).
	OutcomeDiscarded = "discarded"
	// OutcomeBusy: one MovePage attempt failed transiently.
	OutcomeBusy = "busy"
	// OutcomeTierFull: the destination tier had no capacity.
	OutcomeTierFull = "tier_full"
	// OutcomeQuotaFull: the page owner's fast-tier tenant quota was
	// exhausted (multi-tenant machines only).
	OutcomeQuotaFull = "quota_full"
	// OutcomeSkipped: the policy abandoned the page after exhausting
	// its retries.
	OutcomeSkipped = "skipped"
	// OutcomeRolledBack: a demotion was undone because its paired
	// promotion failed permanently.
	OutcomeRolledBack = "rolled_back"
	// OutcomeRecorded: a PEBS sample for the page landed in the ring.
	OutcomeRecorded = "recorded"
	// OutcomeRingDropped: a PEBS sample for the page was taken but lost
	// to ring-buffer overflow before the policy could drain it.
	OutcomeRingDropped = "ring_dropped"
)

// PageEvent is one record in a page's lifecycle journal. The field set
// is fixed (no omitted keys) so the JSONL schema served by /pagetrace
// is stable for external consumers; fields that do not apply to a kind
// are zero/empty.
type PageEvent struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_ns"`
	Page   uint64 `json:"page"`
	Kind   string `json:"kind"`
	// Tier is the page's tier at event time (alloc/sample), From/To the
	// source and destination of a transition (LRU lists or migration
	// tiers).
	Tier string `json:"tier"`
	From string `json:"from"`
	To   string `json:"to"`
	// Count and Threshold capture the hotness comparison behind a
	// verdict (EMA count vs the agent's current threshold).
	Count     uint32 `json:"count"`
	Threshold uint32 `json:"threshold"`
	// Outcome is the verdict/migration outcome; Reason is free-form
	// context ("count 5 >= threshold 2", "retries exhausted", ...).
	Outcome string `json:"outcome"`
	Reason  string `json:"reason"`
}

// DefaultPageTraceCap is the default page-trace ring capacity.
const DefaultPageTraceCap = 8192

// DefaultPageSampleRate traces one page in 64 — the issue's overhead
// budget for always-on lifecycle tracing.
const DefaultPageSampleRate = 64

// PageTrace is a bounded ring of PageEvents for a hash-sampled page
// subset. A nil *PageTrace is a no-op on every method, so hooks cost
// one branch when tracing is disabled. Safe for concurrent use.
type PageTrace struct {
	mask uint64 // page sampled when mixed hash & mask == 0; immutable
	rate int

	mu    sync.Mutex
	buf   []PageEvent
	head  int
	count int
	seq   uint64
}

// NewPageTrace returns a page trace holding up to capacity events
// (DefaultPageTraceCap if capacity <= 0) for roughly one page in
// sampleRate (rounded up to a power of two; <= 1 traces every page).
func NewPageTrace(capacity, sampleRate int) *PageTrace {
	if capacity <= 0 {
		capacity = DefaultPageTraceCap
	}
	if sampleRate < 1 {
		sampleRate = 1
	}
	pow := 1
	for pow < sampleRate {
		pow <<= 1
	}
	return &PageTrace{
		mask: uint64(pow - 1),
		rate: pow,
		buf:  make([]PageEvent, capacity),
	}
}

// Rate returns the sampling rate (1 event-traced page per Rate pages).
func (t *PageTrace) Rate() int {
	if t == nil {
		return 0
	}
	return t.rate
}

// Sampled reports whether page belongs to the traced subset. It is the
// hot-path guard: a multiply, a shift, and a compare, with no locking
// (the mask is immutable after construction). Nil-safe: a nil trace
// samples nothing.
func (t *PageTrace) Sampled(page uint64) bool {
	if t == nil {
		return false
	}
	// Fibonacci-style mixing spreads consecutive page numbers across
	// the hash space so the traced subset is not one contiguous run.
	h := page * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h&t.mask == 0
}

// Append records e, stamping its sequence number. Callers guard with
// Sampled so unsampled pages never construct an event. Nil-safe.
func (t *PageTrace) Append(e PageEvent) {
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

// Events returns up to n of the most recent events, oldest first
// (n <= 0 returns everything retained). The slice is a copy.
func (t *PageTrace) Events(n int) []PageEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.count {
		n = t.count
	}
	out := make([]PageEvent, n)
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
// one JSON object per line — the format served by /pagetrace. A
// non-negative page filters to that page's events.
func (t *PageTrace) WriteJSONL(w io.Writer, n int, page int64) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events(n) {
		if page >= 0 && e.Page != uint64(page) {
			continue
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
