package harness

// StageStats aggregates a serving run's span-journal stage attribution
// (Result.Stages): whole-virtual-nanosecond totals per pipeline stage
// across every recorded span, plus end-to-end latency quantiles. Lives
// on Result — like ChurnStats — so lockstep serving outcomes flow
// through the sched run cache with everything else.
type StageStats struct {
	// Spans is the number of spans aggregated (rate-1 sampling in the
	// lockstep experiments: one per accepted batch).
	Spans int64
	// Per-stage totals. Decode, Coalesce, and Ack are zero in lockstep
	// runs — the driver calls Submit and Pump back to back, so no
	// virtual time elapses in those stages; they are live only when a
	// wall clock drives the server (cmd/artload).
	DecodeNs   int64
	QueueNs    int64
	StallNs    int64
	CoalesceNs int64
	ApplyNs    int64
	AckNs      int64
	// P50Ns and P99Ns are quantiles of per-span end-to-end latency
	// (sum of the six stages), exact — computed by sorting, not from
	// histogram buckets.
	P50Ns int64
	P99Ns int64
}

// AvgNs divides a stage total by the span count, 0 when empty.
func (s StageStats) AvgNs(total int64) int64 {
	if s.Spans == 0 {
		return 0
	}
	return total / s.Spans
}
