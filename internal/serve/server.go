package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"artmem/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Backend is the machine surface batches are pumped into. Required.
	Backend Backend
	// Registry, when non-nil, receives the serving metrics
	// (artmem_serve_*). Metric names are fixed, so one registry carries
	// at most one Server.
	Registry *telemetry.Registry
	// QueueRecords bounds each tenant's ingress queue in records — the
	// admission-control knob. A batch that would push the queue past
	// the bound is shed with ErrOverloaded instead of queued (a batch
	// arriving at an empty queue is always admitted, so a batch larger
	// than the bound cannot starve). 0 uses 65536.
	QueueRecords int
	// CoalesceRecords caps how many records one pump iteration merges
	// into a single backend AccessBatch pass. Whole batches only — a
	// pump takes at least one batch regardless. 0 uses 16384.
	CoalesceRecords int
	// Clock supplies the stage timestamps for spans, SLO windows, and
	// the latency metrics, in nanoseconds. Nil uses the wall clock;
	// deterministic experiments inject the machine's virtual clock so
	// every recorded duration is an exact replayable integer.
	Clock func() int64
	// Spans, when non-nil, records a hash-sampled latency span per
	// accepted batch (decode → queue → stall → coalesce → apply → ack)
	// into the journal served at /spans. Nil — the default — keeps
	// span recording off and the serving hooks one-branch no-ops, the
	// same discipline as telemetry.PageTrace.
	Spans *telemetry.SpanJournal
	// StallNs, when non-nil, returns a cumulative stall counter in
	// clock nanoseconds — core.System.ControlBusyNs live, the
	// machine's MigrationStallNs in lockstep. The server differences
	// it across a sampled batch's residency to attribute migration
	// stall out of its queue wait. Ignored unless Spans is set.
	StallNs func() int64
	// SLO, when non-nil, receives every resolved batch's outcome
	// (end-to-end latency, acked or lost) for per-tenant burn-rate
	// accounting, served at /slo.
	SLO *telemetry.SLOMonitor
}

// Result reports a batch's fate to its submitter's done callback:
// Err == nil means every record was applied (ack); a non-nil Err means
// the batch was rejected after queueing (for example its tenant slot
// started draining between submit and pump).
type Result struct {
	// Err is nil on ack.
	Err error
	// Count is the number of records applied.
	Count uint32
	// QueueNs is the batch's queue residency in wall nanoseconds.
	QueueNs uint64
}

// spanStart is the submit-side state of a sampled batch's span: the
// global batch id the sampler keyed on, and the stall counter at
// enqueue. Only sampled batches allocate one.
type spanStart struct {
	id     uint64
	stall0 int64
}

// batch is one queued request batch. enq and decode are clock
// nanoseconds; span is nil unless the batch was sampled for the span
// journal.
type batch struct {
	seq    uint64
	recs   []Record
	enq    int64
	decode int64
	done   func(Result)
	span   *spanStart
}

// pumpScratch is one pump's coalescing buffers. The pump goroutine
// owns a private scratch; the synchronous Pump path uses the
// queue-resident one, preserving the lockstep allocation behavior
// exactly.
type pumpScratch struct {
	addrs  []uint64
	writes []bool
}

// tenantQueue is one tenant's bounded ingress queue. Its pump is
// single-threaded: one pump goroutine per slot, or the lockstep driver.
type tenantQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches []batch
	records int
	stopped bool

	// Coalescing scratch for the synchronous Pump path.
	sc pumpScratch
}

// Server is the batched streaming server core: per-tenant bounded
// ingress queues on the submit side, one pump per tenant slot
// coalescing queued batches into backend AccessBatch calls on the
// drain side. The network layer (conn.go) feeds Submit from decoded
// frames; the deterministic servebench experiment feeds it directly
// and pumps synchronously (no Start, no goroutines, no wall clock in
// any reported number).
//
// Lifecycle: NewServer → [Start] → Submit/Pump → Drain. Drain is the
// airtight-shutdown barrier: after it returns, every batch ever
// accepted by Submit has had its done callback invoked — acked if its
// records were applied, rejected otherwise — and later Submits fail
// with ErrDraining. Nothing is silently dropped.
type Server struct {
	backend  Backend
	queueCap int
	coalesce int
	queues   []*tenantQueue

	// Latency attribution (nil-safe when disabled): the injected
	// clock, the span journal with its global batch-id counter, the
	// stall attribution source, and the SLO monitor.
	clock   func() int64
	spans   *telemetry.SpanJournal
	stallNs func() int64
	slo     *telemetry.SLOMonitor
	batchID atomic.Uint64

	draining atomic.Bool

	mu      sync.Mutex
	started bool
	pumps   sync.WaitGroup

	// net is the network frontend's state (conn.go); unused in
	// lockstep mode.
	net netState

	// Telemetry (nil-safe when no registry is configured).
	connections *telemetry.Gauge
	frames      map[byte]*telemetry.Counter
	records     [3]*telemetry.Counter
	acked       *telemetry.Counter
	rejected    map[byte]*telemetry.Counter
	coalesced   *telemetry.Histogram
	queueWait   *telemetry.Histogram
	batchLat    *telemetry.Histogram
	decodeErrs  *telemetry.Counter
}

// latencyBuckets is the HDR-style ladder the serve-path latency
// histograms share: ~6% relative error from 256ns to ~8.6s, tight
// enough for meaningful p99/p999 interpolation at both lockstep
// (virtual microseconds) and network (wall milliseconds) scales.
var latencyBuckets = telemetry.HDRBuckets(256, 8_589_934_592, 4)

// NewServer builds a server over cfg.Backend, one ingress queue per
// backend slot.
func NewServer(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("serve: Config.Backend is required")
	}
	if cfg.QueueRecords <= 0 {
		cfg.QueueRecords = 65536
	}
	if cfg.CoalesceRecords <= 0 {
		cfg.CoalesceRecords = 16384
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	s := &Server{
		backend:  cfg.Backend,
		queueCap: cfg.QueueRecords,
		coalesce: cfg.CoalesceRecords,
		queues:   make([]*tenantQueue, cfg.Backend.Slots()),
		clock:    cfg.Clock,
		spans:    cfg.Spans,
		stallNs:  cfg.StallNs,
		slo:      cfg.SLO,
	}
	for i := range s.queues {
		q := &tenantQueue{}
		q.cond = sync.NewCond(&q.mu)
		s.queues[i] = q
	}
	s.register(cfg.Registry)
	return s
}

// register instruments reg with the serving series. Nil-safe: a nil
// registry leaves every handle nil and all recording no-ops.
func (s *Server) register(reg *telemetry.Registry) {
	s.connections = reg.Gauge("artmem_serve_connections",
		"Open client connections on the serving frontend.")
	s.frames = map[byte]*telemetry.Counter{}
	for _, t := range []byte{FrameHello, FrameBatch, FrameBye} {
		s.frames[t] = reg.Counter("artmem_serve_frames_total",
			"Frames received from clients, by type.",
			telemetry.L("type", frameName(t)))
	}
	ops := [...]string{OpAccess: "access", OpAlloc: "alloc", OpFree: "free"}
	for op, name := range ops {
		s.records[op] = reg.Counter("artmem_serve_records_total",
			"Request records applied to the machine, by op.",
			telemetry.L("op", name))
	}
	s.acked = reg.Counter("artmem_serve_batches_acked_total",
		"Request batches fully applied and acknowledged.")
	s.rejected = map[byte]*telemetry.Counter{}
	for _, c := range []byte{CodeOverloaded, CodeBadTenant, CodeDraining, CodeThrottled, CodeMalformed} {
		s.rejected[c] = reg.Counter("artmem_serve_batches_rejected_total",
			"Request batches refused, by reason (overloaded = backpressure shed).",
			telemetry.L("reason", CodeString(c)))
	}
	reg.GaugeFunc("artmem_serve_queue_records",
		"Records currently waiting in the per-tenant ingress queues.",
		func() float64 {
			total := 0
			for _, q := range s.queues {
				q.mu.Lock()
				total += q.records
				q.mu.Unlock()
			}
			return float64(total)
		})
	s.coalesced = reg.Histogram("artmem_serve_coalesced_records",
		"Records merged into one backend pass per pump iteration.",
		telemetry.ExpBuckets(1, 2, 18))
	// The latency series are log-bucketed HDR histograms with
	// server-side quantile exposition (name_p50/_p90/_p99/_p999) —
	// interpolated tails, not fixed-class counting.
	s.queueWait = reg.HistogramQuantiles("artmem_serve_queue_wait_ns",
		"Queue residency of acknowledged batches in nanoseconds.",
		latencyBuckets)
	s.batchLat = reg.HistogramQuantiles("artmem_serve_batch_latency_ns",
		"End-to-end latency of acknowledged batches in nanoseconds (decode + queue + apply).",
		latencyBuckets)
	s.decodeErrs = reg.Counter("artmem_serve_decode_errors_total",
		"Undecodable or oversized frames received (connection dropped).")
}

// frameName names a frame type for the frames_total label.
func frameName(t byte) string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameBatch:
		return "batch"
	case FrameBye:
		return "bye"
	}
	return fmt.Sprintf("type%d", t)
}

// countReject bumps the rejected counter for a status code.
func (s *Server) countReject(code byte) {
	if c := s.rejected[code]; c != nil {
		c.Inc()
	}
}

// Submit offers one batch to slot's ingress queue. A nil return means
// the batch was accepted: done (if non-nil) will be invoked exactly
// once by the slot's pump — with Result.Err nil once every record is
// applied, non-nil if the slot stopped accepting work while the batch
// waited. A non-nil return means the batch was refused at the door
// (done is never called): ErrOverloaded is the admission-control shed,
// ErrDraining the shutdown refusal, ErrBadTenant / tenancy errors a
// slot that cannot take traffic.
//
// The caller must not mutate recs after a nil return.
func (s *Server) Submit(slot int, seq uint64, recs []Record, done func(Result)) error {
	return s.SubmitTimed(slot, seq, recs, 0, done)
}

// SubmitTimed is Submit with the frame-decode duration that produced
// recs, in clock nanoseconds — the network layer measures it around
// ReadDecode so spans and the end-to-end latency metrics can attribute
// it. Direct submitters (lockstep experiments, tests) use Submit,
// which passes zero.
func (s *Server) SubmitTimed(slot int, seq uint64, recs []Record, decodeNs int64, done func(Result)) error {
	if slot < 0 || slot >= len(s.queues) {
		s.countReject(CodeBadTenant)
		return fmt.Errorf("%w: slot %d of %d", ErrBadTenant, slot, len(s.queues))
	}
	if s.draining.Load() {
		s.countReject(CodeDraining)
		return ErrDraining
	}
	if err := s.backend.Check(slot); err != nil {
		s.countReject(CodeFromError(err))
		return err
	}
	q := s.queues[slot]
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		s.countReject(CodeDraining)
		return ErrDraining
	}
	// Admission control: a batch that would overflow the bound is shed
	// at the boundary — the queue never grows past QueueRecords, so an
	// overloading client costs bounded memory, not unbounded buffering.
	// The empty-queue exception keeps an oversized batch admittable.
	if q.records > 0 && q.records+len(recs) > s.queueCap {
		queued := q.records
		q.mu.Unlock()
		s.countReject(CodeOverloaded)
		return fmt.Errorf("%w: %d records queued, cap %d", ErrOverloaded, queued, s.queueCap)
	}
	b := batch{seq: seq, recs: recs, enq: s.clock(), decode: decodeNs, done: done}
	// Span sampling keys on a server-global accepted-batch counter; a
	// nil journal costs exactly this one branch.
	if s.spans != nil {
		if id := s.batchID.Add(1); s.spans.Sampled(id) {
			sp := &spanStart{id: id}
			if s.stallNs != nil {
				sp.stall0 = s.stallNs()
			}
			b.span = sp
		}
	}
	q.batches = append(q.batches, b)
	q.records += len(recs)
	q.cond.Signal()
	q.mu.Unlock()
	return nil
}

// QueuedRecords returns the records currently queued for slot.
func (s *Server) QueuedRecords(slot int) int {
	q := s.queues[slot]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.records
}

// Pump runs one coalescing iteration for slot: it takes whole batches
// from the head of the queue up to CoalesceRecords records (always at
// least one batch), applies their records to the backend in merged
// AccessBatch passes, and fires the done callbacks. Returns the number
// of batches retired (0 when the queue is empty).
//
// Pump is the deterministic drive point: the lockstep experiment calls
// it directly, the per-slot pump goroutines (Start) call it in a loop.
// At most one *external* caller may pump a given slot at a time (it
// uses the queue-resident scratch); Start's pump goroutine carries a
// private scratch.
func (s *Server) Pump(slot int) int {
	return s.pump(slot, &s.queues[slot].sc)
}

// pump runs one coalescing iteration for slot using sc as the apply
// scratch.
func (s *Server) pump(slot int, sc *pumpScratch) int {
	q := s.queues[slot]
	q.mu.Lock()
	if len(q.batches) == 0 {
		q.mu.Unlock()
		return 0
	}
	n, recs := 0, 0
	for _, b := range q.batches {
		if n > 0 && recs+len(b.recs) > s.coalesce {
			break
		}
		recs += len(b.recs)
		n++
	}
	took := q.batches[:n:n]
	q.batches = q.batches[n:]
	if len(q.batches) == 0 {
		q.batches = nil
	}
	q.records -= recs
	q.mu.Unlock()

	deq := s.clock()
	// Re-check the slot at apply time: it may have started draining
	// while the batch waited. Its batches are rejected, not silently
	// applied to a reclaiming tenant (and not silently dropped).
	err := s.backend.Check(slot)
	applyStart := deq
	if err == nil {
		applyStart = s.clock()
		s.apply(slot, sc, took)
		s.coalesced.Observe(float64(recs))
	}
	now := s.clock()
	var stallNow int64
	if s.spans != nil && s.stallNs != nil {
		stallNow = s.stallNs()
	}
	for _, b := range took {
		qns := uint64(now - b.enq)
		if err != nil {
			s.countReject(CodeFromError(err))
			if b.done != nil {
				b.done(Result{Err: err, QueueNs: qns})
			}
		} else {
			s.acked.Inc()
			s.queueWait.Observe(float64(qns))
			s.batchLat.Observe(float64(int64(qns) + b.decode))
			if b.done != nil {
				b.done(Result{Count: uint32(len(b.recs)), QueueNs: qns})
			}
		}
		if b.span != nil {
			s.recordSpan(slot, b, err, deq, applyStart, now, stallNow)
		}
		s.slo.Observe(slot, int64(qns)+b.decode, err == nil)
	}
	return n
}

// recordSpan assembles and journals a sampled batch's span after its
// done callback resolved. Stage semantics: stall is the delta of the
// attribution counter across the batch's residency (enqueue → apply
// end); queue is dequeue-wait minus that stall, clamped at zero;
// coalesce the dequeue→apply merge; apply the coalesced backend pass
// the batch rode (shared by every batch in the pass); ack the
// done-callback flush, measured per sampled batch.
func (s *Server) recordSpan(slot int, b batch, err error, deq, applyStart, applyEnd, stallNow int64) {
	sp := telemetry.Span{
		Batch:     b.span.id,
		StartNs:   b.enq,
		Tenant:    slot,
		ClientSeq: b.seq,
		Records:   len(b.recs),
		Outcome:   telemetry.SpanAcked,
		DecodeNs:  b.decode,
		AckNs:     s.clock() - applyEnd,
	}
	if err != nil {
		sp.Outcome = telemetry.SpanRejected
	} else {
		sp.CoalesceNs = applyStart - deq
		sp.ApplyNs = applyEnd - applyStart
	}
	if s.stallNs != nil {
		if d := stallNow - b.span.stall0; d > 0 {
			sp.StallNs = d
		}
	}
	if qn := deq - b.enq - sp.StallNs; qn > 0 {
		sp.QueueNs = qn
	}
	s.spans.Append(sp)
}

// apply replays the taken batches' records into the backend, merging
// runs of access records across batch boundaries into single
// AccessBatch calls. Alloc and free records are ordering barriers: the
// pending access run flushes first, then the range op executes, so a
// client's access-after-free lands after the free.
func (s *Server) apply(slot int, sc *pumpScratch, took []batch) {
	addrs, writes := sc.addrs[:0], sc.writes[:0]
	flush := func() {
		if len(addrs) > 0 {
			s.backend.AccessBatch(slot, addrs, writes)
			s.records[OpAccess].Add(uint64(len(addrs)))
			addrs, writes = addrs[:0], writes[:0]
		}
	}
	for _, b := range took {
		for _, r := range b.recs {
			switch r.Op {
			case OpAccess:
				addrs = append(addrs, r.Addr)
				writes = append(writes, r.Write)
			case OpAlloc:
				flush()
				s.backend.AllocRange(slot, r.Addr, r.Size)
				s.records[OpAlloc].Inc()
			case OpFree:
				flush()
				s.backend.FreeRange(slot, r.Addr, r.Size)
				s.records[OpFree].Inc()
			}
		}
	}
	flush()
	sc.addrs, sc.writes = addrs, writes
}

// Start launches one pump goroutine per tenant slot, each with a
// private apply scratch. No-op if already started; the lockstep driver
// simply never calls it.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := range s.queues {
		s.pumps.Add(1)
		go func(slot int) {
			defer s.pumps.Done()
			s.pumpLoop(slot, &pumpScratch{})
		}(i)
	}
}

// pumpLoop drains slot's queue until stopped AND empty — the order
// that makes Drain airtight: stop is observed only once there is
// nothing left to retire.
func (s *Server) pumpLoop(slot int, sc *pumpScratch) {
	q := s.queues[slot]
	for {
		q.mu.Lock()
		for len(q.batches) == 0 && !q.stopped {
			q.cond.Wait()
		}
		if len(q.batches) == 0 && q.stopped {
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		s.pump(slot, sc)
	}
}

// Drain shuts the core down airtight: new Submits fail with
// ErrDraining, every already-accepted batch is pumped to its done
// callback (acked or rejected, never dropped), and the pump goroutines
// exit. Idempotent; works both started and lockstep.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	started := s.started
	s.started = false
	s.mu.Unlock()
	for _, q := range s.queues {
		q.mu.Lock()
		q.stopped = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	if started {
		s.pumps.Wait()
		return
	}
	// Lockstep mode: no pump goroutines, drain synchronously.
	for i := range s.queues {
		for s.Pump(i) > 0 {
		}
	}
}
