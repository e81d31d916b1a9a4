package serve

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/workloads"
)

// LoadConfig parameterizes a load-generation run: N concurrent clients
// each replaying a seed-decorrelated instance of one workload trace
// against a serving frontend.
type LoadConfig struct {
	// Addr is the server's address.
	Addr string
	// Tenant is the tenant slot every client drives; TenantOf, when
	// non-nil, overrides it per client (e.g. round-robin over slots).
	Tenant   uint32
	TenantOf func(client int) uint32
	// Clients is the number of concurrent streams. 0 uses 1.
	Clients int
	// Workload names the internal/workloads trace each client replays.
	Workload string
	// Div is the workload footprint divisor. 0 uses 256.
	Div int64
	// Accesses caps each client's trace. 0 uses 200_000.
	Accesses int64
	// Batch is the records per batch frame. 0 uses 4096.
	Batch int
	// Window is each client's in-flight batch window. 0 uses 8.
	Window int
	// Seed is the base trace seed; client i uses Seed+i.
	Seed uint64
	// Retry resends batches shed by backpressure (with linear backoff)
	// instead of dropping them.
	Retry bool
	// IdleTimeout bounds each client's wait for any server frame.
	// 0 uses 30s.
	IdleTimeout time.Duration
}

// Report aggregates a run: the batch ledger summed over clients plus
// throughput and end-to-end latency percentiles. Lost must be 0
// against a healthy server — every batch either acked or explicitly
// shed. The JSON field set is the `artload -json` ledger schema;
// durations serialize as integer nanoseconds.
type Report struct {
	Clients int    `json:"clients"`
	Sent    uint64 `json:"sent"`
	Acked   uint64 `json:"acked"`
	Shed    uint64 `json:"shed"`
	Lost    uint64 `json:"lost"`
	// AckedRecords is the number of access records applied end to end.
	AckedRecords uint64        `json:"acked_records"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	// AccessesPerSec is AckedRecords / Elapsed.
	AccessesPerSec float64 `json:"accesses_per_sec"`
	// P50 and P99 are batch end-to-end latency percentiles.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Errors carries per-client terminal errors (empty on a clean run).
	Errors []string `json:"errors"`
	// Stages is the server-side stage-latency breakdown reconstructed
	// from the span journal; nil when span sampling was off or the
	// server is remote (the journal is in its process, not ours).
	Stages *StageBreakdown `json:"stages"`
}

// String renders the report as the artload summary block.
func (r Report) String() string {
	s := fmt.Sprintf(
		"clients %d  batches sent %d acked %d shed %d lost %d\n"+
			"accesses %d in %.2fs  →  %.0f accesses/sec\n"+
			"batch e2e latency p50 %s  p99 %s",
		r.Clients, r.Sent, r.Acked, r.Shed, r.Lost,
		r.AckedRecords, r.Elapsed.Seconds(), r.AccessesPerSec, r.P50, r.P99)
	if r.Stages != nil {
		s += "\n" + r.Stages.String()
	}
	return s
}

// StageBreakdown is the per-batch mean of each serving-pipeline stage,
// averaged over the sampled spans of a run.
type StageBreakdown struct {
	// Spans is the number of sampled spans the means are over.
	Spans int64 `json:"spans"`
	// Mean stage durations per sampled batch, clock nanoseconds.
	AvgDecodeNs   int64 `json:"avg_decode_ns"`
	AvgQueueNs    int64 `json:"avg_queue_ns"`
	AvgStallNs    int64 `json:"avg_stall_ns"`
	AvgCoalesceNs int64 `json:"avg_coalesce_ns"`
	AvgApplyNs    int64 `json:"avg_apply_ns"`
	AvgAckNs      int64 `json:"avg_ack_ns"`
}

// String renders the breakdown as one summary line.
func (b StageBreakdown) String() string {
	return fmt.Sprintf(
		"stage means over %d spans  decode %s  queue %s  stall %s  coalesce %s  apply %s  ack %s",
		b.Spans,
		time.Duration(b.AvgDecodeNs), time.Duration(b.AvgQueueNs),
		time.Duration(b.AvgStallNs), time.Duration(b.AvgCoalesceNs),
		time.Duration(b.AvgApplyNs), time.Duration(b.AvgAckNs))
}

// StageBreakdownOf averages the stage durations of spans; nil when
// spans is empty.
func StageBreakdownOf(spans []telemetry.Span) *StageBreakdown {
	if len(spans) == 0 {
		return nil
	}
	b := &StageBreakdown{Spans: int64(len(spans))}
	for _, s := range spans {
		b.AvgDecodeNs += s.DecodeNs
		b.AvgQueueNs += s.QueueNs
		b.AvgStallNs += s.StallNs
		b.AvgCoalesceNs += s.CoalesceNs
		b.AvgApplyNs += s.ApplyNs
		b.AvgAckNs += s.AckNs
	}
	b.AvgDecodeNs /= b.Spans
	b.AvgQueueNs /= b.Spans
	b.AvgStallNs /= b.Spans
	b.AvgCoalesceNs /= b.Spans
	b.AvgApplyNs /= b.Spans
	b.AvgAckNs /= b.Spans
	return b
}

// Run executes the load generation and blocks until every client
// finishes its trace and closes cleanly.
func Run(cfg LoadConfig) (Report, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Div == 0 {
		cfg.Div = 256
	}
	if cfg.Accesses <= 0 {
		cfg.Accesses = 200_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 4096
	}
	spec, err := workloads.ByName(cfg.Workload)
	if err != nil {
		return Report{}, err
	}
	stats := make([]ClientStats, cfg.Clients)
	errs := make([]error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = runClient(cfg, spec, i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{Clients: cfg.Clients, Elapsed: elapsed}
	var lat []float64
	for i, st := range stats {
		rep.Sent += st.Sent
		rep.Acked += st.Acked
		rep.Shed += st.Shed
		rep.Lost += st.Lost
		rep.AckedRecords += st.AckedRecords
		lat = append(lat, st.LatNs...)
		if errs[i] != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("client %d: %v", i, errs[i]))
		}
	}
	if elapsed > 0 {
		rep.AccessesPerSec = float64(rep.AckedRecords) / elapsed.Seconds()
	}
	rep.P50 = percentile(lat, 0.50)
	rep.P99 = percentile(lat, 0.99)
	if len(rep.Errors) > 0 {
		return rep, fmt.Errorf("serve: %d of %d clients failed: %s",
			len(rep.Errors), cfg.Clients, rep.Errors[0])
	}
	return rep, nil
}

// percentile returns the p-quantile of latNs as a duration (0 when
// empty). Sorts a copy.
func percentile(latNs []float64, p float64) time.Duration {
	if len(latNs) == 0 {
		return 0
	}
	s := append([]float64(nil), latNs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return time.Duration(s[i])
}

// pending tracks unresolved batch payloads for retry mode. A batch's
// resolution can overtake the return of the SendAccessBatch that sent
// it, so a resolution for a seq not yet recorded waits in early until
// sent records the payload.
type pending struct {
	mu     sync.Mutex
	bySeq  map[uint64]payload
	early  map[uint64]byte
	retryq []payload
}

func newPending() *pending {
	return &pending{bySeq: make(map[uint64]payload), early: make(map[uint64]byte)}
}

// sent records the payload of the batch sent as seq, settling it at once
// when its resolution already arrived.
func (p *pending) sent(seq uint64, pl payload) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if code, ok := p.early[seq]; ok {
		delete(p.early, seq)
		p.settle(pl, code)
		return
	}
	p.bySeq[seq] = pl
}

// resolved settles batch seq with its status code, or parks the code
// until sent records the payload.
func (p *pending) resolved(seq uint64, code byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.bySeq[seq]
	if !ok {
		p.early[seq] = code
		return
	}
	delete(p.bySeq, seq)
	p.settle(pl, code)
}

// settle queues a resolved payload for retransmission. Only backpressure
// sheds retry; hard rejects (bad tenant, draining) stay shed. Give up
// after 50 attempts so an unrecoverable overload cannot spin forever.
// Caller holds p.mu.
func (p *pending) settle(pl payload, code byte) {
	if code == CodeOverloaded && pl.attempts < 50 {
		pl.attempts++
		p.retryq = append(p.retryq, pl)
	}
}

// next pops the oldest payload queued for retransmission. When none is
// queued, ok is false and inflight counts the sent batches not yet
// resolved.
func (p *pending) next() (pl payload, ok bool, inflight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.retryq) == 0 {
		return payload{}, false, len(p.bySeq)
	}
	pl = p.retryq[0]
	p.retryq = p.retryq[1:]
	return pl, true, len(p.bySeq)
}

type payload struct {
	addrs    []uint64
	writes   []bool
	attempts int
}

// runClient replays one client's trace: batch the workload's accesses,
// stream them windowed, optionally retry backpressure sheds, and close
// politely.
func runClient(cfg LoadConfig, spec workloads.Spec, i int) (ClientStats, error) {
	prof := workloads.Profile{
		Div:             cfg.Div,
		PatternAccesses: cfg.Accesses,
		AppAccesses:     cfg.Accesses,
		Seed:            cfg.Seed,
	}
	w := workloads.Limit(spec.NewSeeded(prof, uint64(i)), cfg.Accesses)
	defer w.Close()

	tenant := cfg.Tenant
	if cfg.TenantOf != nil {
		tenant = cfg.TenantOf(i)
	}
	var pend *pending
	ccfg := ClientConfig{
		Tenant:      tenant,
		ClientID:    fmt.Sprintf("artload-%d", i),
		Window:      cfg.Window,
		IdleTimeout: cfg.IdleTimeout,
	}
	if cfg.Retry {
		pend = newPending()
		ccfg.OnResolve = func(seq uint64, code byte, _ float64) { pend.resolved(seq, code) }
	}
	cl, err := Dial(cfg.Addr, ccfg)
	if err != nil {
		return ClientStats{}, err
	}

	send := func(addrs []uint64, writes []bool, attempts int) error {
		if attempts > 0 {
			// Linear backoff before a retransmit, capped: let the
			// server's queues drain instead of hammering them.
			d := time.Duration(attempts) * time.Millisecond
			if d > 10*time.Millisecond {
				d = 10 * time.Millisecond
			}
			time.Sleep(d)
		}
		seq, err := cl.SendAccessBatch(addrs, writes)
		if err != nil {
			return err
		}
		if pend != nil {
			pend.sent(seq, payload{addrs: addrs, writes: writes, attempts: attempts})
		}
		return nil
	}
	drainRetries := func(final bool) error {
		if pend == nil {
			return nil
		}
		for {
			p, ok, inflight := pend.next()
			if !ok {
				if !final || inflight == 0 {
					return nil
				}
				// Batches are still in flight and may yet land on the
				// retry queue; yield until they resolve.
				time.Sleep(time.Millisecond)
				continue
			}
			if err := send(p.addrs, p.writes, p.attempts); err != nil {
				return err
			}
		}
	}

	addrs := make([]uint64, 0, cfg.Batch)
	writes := make([]bool, 0, cfg.Batch)
	flush := func() error {
		if len(addrs) == 0 {
			return nil
		}
		// Retry mode retains payloads past the send, so each flush
		// needs fresh buffers; without retry the encoder copies
		// synchronously and the buffers recycle.
		a, wr := addrs, writes
		if err := send(a, wr, 0); err != nil {
			return err
		}
		if pend != nil {
			addrs = make([]uint64, 0, cfg.Batch)
			writes = make([]bool, 0, cfg.Batch)
		} else {
			addrs, writes = addrs[:0], writes[:0]
		}
		return nil
	}

	var runErr error
stream:
	for {
		b, ok := w.Next()
		if !ok {
			break
		}
		for _, a := range b {
			addrs = append(addrs, a.Addr)
			writes = append(writes, a.Write)
			if len(addrs) == cfg.Batch {
				if runErr = flush(); runErr != nil {
					break stream
				}
			}
		}
		if runErr = drainRetries(false); runErr != nil {
			break
		}
	}
	if runErr == nil {
		runErr = flush()
	}
	if runErr == nil {
		runErr = drainRetries(true)
	}
	st, closeErr := cl.Close()
	if runErr == nil {
		runErr = closeErr
	}
	return st, runErr
}

// Loopback is an in-process single-tenant serving stack for smoke
// tests and `artload -loopback`: a System sized for the named
// workload, a Server over it, both wired to a fresh registry, listening
// on a loopback port.
type Loopback struct {
	// Sys is the backing runtime and Srv the frontend; Registry holds
	// both components' metrics.
	Sys      *core.System
	Srv      *Server
	Registry *telemetry.Registry
	// Spans is the span journal when LoopbackConfig.SpanRate was set;
	// nil otherwise. SLO is the monitor (always on for loopback — one
	// slot, negligible cost).
	Spans  *telemetry.SpanJournal
	SLO    *telemetry.SLOMonitor
	addr   string
	served chan error
}

// LoopbackConfig parameterizes StartLoopbackCfg.
type LoopbackConfig struct {
	// Workload names the trace the stack is sized for; Div scales its
	// footprint (0 uses 256).
	Workload string
	Div      int64
	// QueueRecords is the per-tenant admission bound (0 uses the
	// server default).
	QueueRecords int
	// SpanRate, when > 0, enables span recording for roughly one
	// accepted batch in SpanRate (1 records every batch), with
	// migration-stall attribution wired to the runtime's control-loop
	// busy counter. 0 keeps spans off (the default-off discipline).
	SpanRate int
	// SpanCap bounds the journal (0 uses telemetry.DefaultSpanCap).
	SpanCap int
}

// StartLoopbackCfg builds and starts a loopback stack.
func StartLoopbackCfg(cfg LoopbackConfig) (*Loopback, error) {
	spec, err := workloads.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Div == 0 {
		cfg.Div = 256
	}
	prof := workloads.Profile{Div: cfg.Div, PatternAccesses: 1, AppAccesses: 1, Seed: 1}
	probe := spec.New(prof)
	foot := probe.FootprintBytes()
	probe.Close()

	reg := telemetry.NewRegistry()
	sys := core.NewSystem(core.SystemConfig{
		Machine: memsim.DefaultConfig(foot, foot/5, prof.PageSize()),
		Telemetry: &telemetry.Set{
			Registry: reg,
			Trace:    telemetry.NewTrace(0),
		},
	})
	sys.Start()
	scfg := Config{
		Backend:      NewSystemBackend(sys),
		Registry:     reg,
		QueueRecords: cfg.QueueRecords,
		SLO:          telemetry.NewSLOMonitor([]telemetry.SLOObjective{telemetry.BatchSLO()}, nil, nil),
	}
	if cfg.SpanRate > 0 {
		scfg.Spans = telemetry.NewSpanJournal(cfg.SpanCap, cfg.SpanRate)
		scfg.StallNs = sys.ControlBusyNs
	}
	srv := NewServer(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Stop()
		return nil, err
	}
	lb := &Loopback{Sys: sys, Srv: srv, Registry: reg,
		Spans: scfg.Spans, SLO: scfg.SLO,
		addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { lb.served <- srv.Serve(ln) }()
	return lb, nil
}

// Addr returns the bound loopback address.
func (l *Loopback) Addr() string { return l.addr }

// Stop drains the frontend and stops the runtime.
func (l *Loopback) Stop() {
	l.Srv.Shutdown()
	<-l.served
	l.Sys.Stop()
}
