package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"artmem/internal/core"
	"artmem/internal/dist"
	"artmem/internal/memsim"
	"artmem/internal/serve"
	"artmem/internal/telemetry"
	"artmem/internal/tenancy"
	"artmem/internal/workloads"
)

// Serving load shape: two closed-loop client connections in total (the
// benchmark host has two CPUs), each keeping at most serveWindow
// batches of serveBatch records in flight.
const (
	serveDiv    = 256 // loopback scale, as serve.StartLoopbackCfg defaults
	serveBatch  = 4096
	serveWindow = 8
	// Records per client: warm-up (inside set-up time) and the timed
	// trace, which each workload sends several times over to keep the
	// pre-generated traces small.
	serveWarmRecords  = 2_500_000
	serveTimedRecords = 2_000_000
	// Every allocChurnEvery-th batch of the write-heavy tenant is a
	// free+alloc pair over allocChurnPages pages of its region.
	allocChurnEvery = 16
	allocChurnPages = 64
)

// sendBatch is one pre-generated request: pure accesses (addrs/writes,
// sent with Client.SendAccessBatch) or mixed records (recs, sent with
// Client.SendBatch).
type sendBatch struct {
	addrs  []uint64
	writes []bool
	recs   []serve.Record
}

func (b sendBatch) records() int {
	if b.recs != nil {
		return len(b.recs)
	}
	return len(b.addrs)
}

// clientTrace is one client's pre-generated stream: its tenant slot and
// the warm-up and timed batches.
type clientTrace struct {
	tenant      uint32
	warm, timed []sendBatch
}

// batchTrace cuts a workload's first warm+timed accesses into batches.
// Traces are generated once per run, before any timing, so generating
// them never competes with the server.
func batchTrace(w workloads.Workload, tenant uint32) clientTrace {
	defer w.Close()
	ct := clientTrace{tenant: tenant}
	cur := sendBatch{}
	total := 0
	for total < serveWarmRecords+serveTimedRecords {
		batch, ok := w.Next()
		if !ok {
			panic(fmt.Sprintf("perfbench: workload %s ended after %d accesses", w.Name(), total))
		}
		for _, a := range batch {
			cur.addrs = append(cur.addrs, a.Addr)
			cur.writes = append(cur.writes, a.Write)
			if len(cur.addrs) == serveBatch {
				if total < serveWarmRecords {
					ct.warm = append(ct.warm, cur)
				} else {
					ct.timed = append(ct.timed, cur)
				}
				total += serveBatch
				cur = sendBatch{}
				if total >= serveWarmRecords+serveTimedRecords {
					break
				}
			}
		}
	}
	return ct
}

// withAllocChurn replaces every allocChurnEvery-th timed batch's tail
// with a free+alloc pair over a seeded page range of the tenant's
// region: the server applies it as a write barrier.
func withAllocChurn(ct clientTrace, seed uint64, foot, pageSize int64) clientTrace {
	rng := dist.NewRNG(seed ^ 0xa110c)
	size := uint64(allocChurnPages * pageSize)
	pages := uint64(foot/pageSize) - allocChurnPages
	for i := allocChurnEvery - 1; i < len(ct.timed); i += allocChurnEvery {
		addr := rng.Uint64n(pages) * uint64(pageSize)
		b := ct.timed[i]
		recs := make([]serve.Record, 0, len(b.addrs))
		for j := range b.addrs[:len(b.addrs)-2] {
			recs = append(recs, serve.Record{Op: serve.OpAccess, Addr: b.addrs[j], Write: b.writes[j]})
		}
		recs = append(recs,
			serve.Record{Op: serve.OpFree, Addr: addr, Size: size},
			serve.Record{Op: serve.OpAlloc, Addr: addr, Size: size})
		ct.timed[i] = sendBatch{recs: recs}
	}
	return ct
}

// stack is a started serving stack under test: the server's listen
// address, and read access to the runtime behind it.
type stack struct {
	addr         string
	stop         func()
	counters     func() memsim.Counters
	now          func() int64                   // the machine's virtual clock
	tenantFast   func() []memsim.TenantCounters // nil for single-tenant
	decisions    func() uint64
	controlBusy  func() int64
	registry     *telemetry.Registry
	spans        *telemetry.SpanJournal
	machine      func() *memsim.Machine // valid after stop
	agents       func() []*core.ArtMem  // valid after stop
	tenantReport func() *core.TenantsReport
}

// ---- serve: single-tenant System over loopback TCP --------------------------

var (
	serveTraceOnce sync.Once
	serveTraces    []clientTrace
)

func runServe(seed uint64, traced bool) cell {
	serveTraceOnce.Do(func() {
		spec, err := workloads.ByName("YCSB")
		if err != nil {
			panic(err)
		}
		p := serveProfile(seed)
		for i := 0; i < 2; i++ {
			serveTraces = append(serveTraces, batchTrace(spec.NewSeeded(p, uint64(i)), 0))
		}
	})
	return runServeCell(serveTraces, 6, traced, func(traced bool) (*stack, error) {
		cfg := serve.LoopbackConfig{Workload: "YCSB", Div: serveDiv, QueueRecords: 2 * serveWindow * serveBatch}
		if traced {
			cfg.SpanRate, cfg.SpanCap = 1, 1<<16
		}
		lb, err := serve.StartLoopbackCfg(cfg)
		if err != nil {
			return nil, err
		}
		return &stack{
			addr:        lb.Addr(),
			stop:        lb.Stop,
			counters:    lb.Sys.Counters,
			now:         lb.Sys.Now,
			decisions:   lb.Sys.Policy().Decisions,
			controlBusy: lb.Sys.ControlBusyNs,
			registry:    lb.Registry,
			spans:       lb.Spans,
			machine:     lb.Sys.Machine,
			agents:      func() []*core.ArtMem { return []*core.ArtMem{lb.Sys.Policy()} },
		}, nil
	})
}

// serveProfile sizes client traces: long enough for warm-up plus the
// timed phase at the loopback scale.
func serveProfile(seed uint64) workloads.Profile {
	n := int64(serveWarmRecords + serveTimedRecords + workloads.BatchSize)
	return workloads.Profile{Div: serveDiv, PatternAccesses: n, AppAccesses: 2 * n, Seed: seed}
}

// ---- serve-tenants: MultiSystem, two ArtMem tenants, dynamic arbiter ---------

var (
	tenantTraceOnce sync.Once
	tenantTraces    []clientTrace
	tenantSlotBytes int64
)

// tenantPatterns are the two tenants' access shapes over a 32 GB-paper
// region each: a read-mostly tenant and a write-heavy one, each with a
// fixed hot set (90% of its accesses). The hot sets are fixed so that
// the timed phase measures placement at steady state. Under a moving hot
// set, fast_ratio would track how many wall-clock agent periods each
// shift happened to get. The write-heavy tenant's alloc/free churn
// (withAllocChurn) keeps first-touch placement and promotion running.
func tenantPatterns(p workloads.Profile) []*workloads.Pattern {
	mk := func(name string, writeFrac, hotStartGB, hotGB float64) *workloads.Pattern {
		foot := p.Bytes(32)
		return &workloads.Pattern{Name: name, Footprint: foot, Phases: []workloads.Phase{{
			Name:      "steady",
			Accesses:  p.PatternAccesses,
			WriteFrac: writeFrac,
			Regions: []workloads.Region{
				{Start: p.Bytes(hotStartGB), Size: p.Bytes(hotGB), Weight: 0.9},
				{Start: 0, Size: foot, Weight: 0.1},
			},
		}}}
	}
	return []*workloads.Pattern{mk("reader", 0.02, 8, 4), mk("writer", 0.6, 16, 6)}
}

func runServeTenants(seed uint64, traced bool) cell {
	p := serveProfile(seed)
	pats := tenantPatterns(p)
	tenantTraceOnce.Do(func() {
		for i, pat := range pats {
			w := workloads.WithInitSweep(pat.NewWorkload(seed+uint64(i)), 0)
			ct := batchTrace(w, uint32(i))
			if i == 1 {
				ct = withAllocChurn(ct, seed, pat.Footprint, p.PageSize())
			}
			tenantTraces = append(tenantTraces, ct)
			if pat.Footprint > tenantSlotBytes {
				tenantSlotBytes = pat.Footprint
			}
		}
	})
	return runServeCell(tenantTraces, 3, traced, func(traced bool) (*stack, error) {
		tenants := make([]core.TenantConfig, len(pats))
		for i, pat := range pats {
			tenants[i] = core.TenantConfig{
				Name:   pat.Name,
				Weight: 1,
				Policy: core.Config{Seed: seed + uint64(i)},
			}
		}
		foot := tenantSlotBytes * int64(len(pats))
		sys := core.NewMultiSystem(core.MultiSystemConfig{
			Machine: memsim.DefaultConfig(foot, foot/5, p.PageSize()),
			Tenants: tenants,
			Arbiter: tenancy.ArbiterConfig{Mode: tenancy.ModeDynamic, Admission: true},
		})
		sys.Start()
		scfg := serve.Config{
			Backend:      serve.NewMultiBackend(sys, tenantSlotBytes),
			Registry:     sys.Telemetry().Registry,
			QueueRecords: 2 * serveWindow * serveBatch,
			SLO: telemetry.NewSLOMonitor(
				[]telemetry.SLOObjective{telemetry.BatchSLO(), telemetry.BatchSLO()}, nil, nil),
		}
		if traced {
			scfg.Spans = telemetry.NewSpanJournal(1<<16, 1)
			scfg.StallNs = sys.ControlBusyNs
		}
		srv := serve.NewServer(scfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.Stop()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		return &stack{
			addr: ln.Addr().String(),
			stop: func() {
				srv.Shutdown()
				<-served
				sys.Stop()
			},
			counters: sys.Counters,
			now:      sys.Now,
			tenantFast: func() []memsim.TenantCounters {
				out := make([]memsim.TenantCounters, sys.NumTenants())
				for i := range out {
					out[i] = sys.TenantCounters(i)
				}
				return out
			},
			decisions: func() uint64 {
				var n uint64
				for _, t := range sys.TenantsReport().Tenants {
					n += t.Decisions
				}
				return n
			},
			controlBusy: sys.ControlBusyNs,
			registry:    sys.Telemetry().Registry,
			spans:       scfg.Spans,
			machine:     sys.Machine,
			agents: func() []*core.ArtMem {
				out := make([]*core.ArtMem, sys.NumTenants())
				for i := range out {
					out[i] = sys.Agent(i)
				}
				return out
			},
			tenantReport: func() *core.TenantsReport {
				r := sys.TenantsReport()
				return &r
			},
		}, nil
	})
}

// ---- the shared serving cell -------------------------------------------------

// streamer drives one client connection through a list of batches,
// closed loop within its window, and records the timed phase's
// send→ack latencies and send-call times.
type streamer struct {
	cl      *serve.Client
	meter   *refMeter
	timed   atomic.Bool
	mu      sync.Mutex
	pending int
	drained *sync.Cond
	latNs   []float64 // acked batches of the timed phase
	sendNs  []float64 // Send* call durations of the timed phase
}

func dialStreamer(addr string, tenant uint32, id int, meter *refMeter) (*streamer, error) {
	s := &streamer{meter: meter}
	s.drained = sync.NewCond(&s.mu)
	cl, err := serve.Dial(addr, serve.ClientConfig{
		Tenant:   tenant,
		ClientID: fmt.Sprintf("perfbench-%d", id),
		Window:   serveWindow,
		OnResolve: func(_ uint64, code byte, latNs float64) {
			s.mu.Lock()
			if code == serve.CodeOK && s.timed.Load() {
				s.latNs = append(s.latNs, latNs)
			}
			s.pending--
			if s.pending == 0 {
				s.drained.Broadcast()
			}
			s.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	s.cl = cl
	return s, nil
}

// stream sends every batch, repeats times over, and returns once each
// has resolved. Every refEvery batches it runs a reference slice
// (speed.go) on its thread, outside the send timings.
func (s *streamer) stream(batches []sendBatch, repeats int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	timed := s.timed.Load()
	for k := 0; k < repeats*len(batches); k++ {
		if k%refEvery == 0 {
			s.meter.slice()
		}
		b := batches[k%len(batches)]
		s.mu.Lock()
		s.pending++
		s.mu.Unlock()
		t0 := time.Now()
		var err error
		if b.recs != nil {
			_, err = s.cl.SendBatch(b.recs)
		} else {
			_, err = s.cl.SendAccessBatch(b.addrs, b.writes)
		}
		if err != nil {
			return err
		}
		if timed {
			s.sendNs = append(s.sendNs, float64(time.Since(t0)))
		}
	}
	s.mu.Lock()
	for s.pending > 0 {
		s.drained.Wait()
	}
	s.mu.Unlock()
	return nil
}

// streamAll runs one phase on every client concurrently.
func streamAll(ss []*streamer, repeats int, phase func(i int) []sendBatch) error {
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *streamer) {
			defer wg.Done()
			errs[i] = s.stream(phase(i), repeats)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runServeCell builds a serving stack with start, dials one client per
// trace, warms up, then times the traces' timed batches, sent repeats
// times over. It checks the batch ledger and the machine's invariants
// after the stack stops.
func runServeCell(traces []clientTrace, repeats int, traced bool, start func(traced bool) (*stack, error)) cell {
	var c cell
	fail := func(format string, args ...any) cell {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
		c.attempted, c.failed = max(c.attempted, 1), max(c.failed, 1)
		return c
	}

	var meter refMeter
	t0 := now()
	st, err := start(traced)
	if err != nil {
		return fail("start: %v", err)
	}
	ss := make([]*streamer, len(traces))
	for i, tr := range traces {
		if ss[i], err = dialStreamer(st.addr, tr.tenant, i, &meter); err != nil {
			st.stop()
			return fail("dial: %v", err)
		}
	}
	if err := streamAll(ss, 1, func(i int) []sendBatch { return traces[i].warm }); err != nil {
		st.stop()
		return fail("warm-up: %v", err)
	}
	runtime.GC()
	p0 := now()
	c.setup = t0.to(p0).without(meter.take())

	// Timed phase.
	var tf0 []memsim.TenantCounters
	if st.tenantFast != nil {
		tf0 = st.tenantFast()
	}
	ctr0, dec0, busy0, now0 := st.counters(), st.decisions(), st.controlBusy(), st.now()
	apply0 := coalesced(st.registry)
	spans0 := st.spans.Total()
	gc0 := readGC()
	for _, s := range ss {
		s.timed.Store(true)
	}
	streamErr := streamAll(ss, repeats, func(i int) []sendBatch { return traces[i].timed })
	c.timed = p0.to(now()).without(meter.take())
	gc1 := readGC()
	ctr1, dec1, busy1, now1 := st.counters(), st.decisions(), st.controlBusy(), st.now()
	apply1 := coalesced(st.registry)
	var tf1 []memsim.TenantCounters
	if st.tenantFast != nil {
		tf1 = st.tenantFast()
	}
	var spans []telemetry.Span
	if traced {
		spans = st.spans.Spans(int(st.spans.Total() - spans0))
	}
	var report *core.TenantsReport
	if st.tenantReport != nil {
		report = st.tenantReport()
	}

	// Close every stream (its ledger is final then), stop the stack,
	// and check the ledger and the machine.
	for i, s := range ss {
		cs, err := s.cl.Close()
		if err != nil {
			c.errs = append(c.errs, fmt.Sprintf("client %d close: %v", i, err))
		}
		c.attempted += int64(cs.Sent)
		c.failed += int64(cs.Shed + cs.Lost)
		if cs.Sent != cs.Acked+cs.Shed+cs.Lost || cs.Lost != 0 || cs.Shed != 0 {
			c.errs = append(c.errs, fmt.Sprintf("client %d ledger: sent %d acked %d shed %d lost %d",
				i, cs.Sent, cs.Acked, cs.Shed, cs.Lost))
		}
		var recs uint64
		for _, b := range traces[i].warm {
			recs += uint64(b.records())
		}
		for _, b := range traces[i].timed {
			recs += uint64(repeats * b.records())
		}
		if cs.AckedRecords != recs {
			c.errs = append(c.errs, fmt.Sprintf("client %d acked %d records, sent %d", i, cs.AckedRecords, recs))
		}
		c.latNs = append(c.latNs, s.latNs...)
	}
	st.stop()
	if streamErr != nil {
		c.errs = append(c.errs, "timed phase: "+streamErr.Error())
	}
	if err := st.machine().CheckInvariants(); err != nil {
		c.errs = append(c.errs, "invariants: "+err.Error())
	}
	if len(c.errs) > 0 {
		c.failed = max(c.failed, 1)
	}

	// End-to-end metrics over the timed phase.
	fast, slow := ctr1.FastAccesses-ctr0.FastAccesses, ctr1.SlowAccesses-ctr0.SlowAccesses
	c.accesses = int64(ctr1.FastAccesses + ctr1.SlowAccesses + ctr1.CacheHits -
		ctr0.FastAccesses - ctr0.SlowAccesses - ctr0.CacheHits)
	c.fastRatio = frac(float64(fast), float64(fast+slow))
	c.tenantMinFR = c.fastRatio
	for i := range tf1 {
		df := tf1[i].FastAccesses - tf0[i].FastAccesses
		ds := tf1[i].SlowAccesses - tf0[i].SlowAccesses
		if i == 0 || frac(float64(df), float64(df+ds)) < c.tenantMinFR {
			c.tenantMinFR = frac(float64(df), float64(df+ds))
		}
	}
	c.simExecMs = float64(now1-now0) / 1e6
	// Latencies are reported at reference host speed (speed.go); the
	// span coverage below compares raw wall times.
	wallLatMean := meanOf(c.latNs)
	for i := range c.latNs {
		c.latNs[i] /= c.timed.slow
	}
	if !traced {
		return c
	}

	l := map[string]float64{}
	wall := c.timed.wallS * 1e9
	l["memsim.cache_hit_frac"] = frac(float64(ctr1.CacheHits-ctr0.CacheHits), float64(c.accesses))
	l["memsim.migrations"] = float64(ctr1.Migrations - ctr0.Migrations)
	l["memsim.promotions"] = float64(ctr1.Promotions - ctr0.Promotions)
	l["memsim.demotions"] = float64(ctr1.Demotions - ctr0.Demotions)
	l["core.ticks"] = float64(dec1 - dec0)
	l["core.decisions_per_maccess"] = frac(float64(dec1-dec0), float64(c.accesses)/1e6)
	l["core.control_busy_frac"] = float64(busy1-busy0) / wall
	agentLayers(l, st.agents())
	if report != nil {
		var denials uint64
		for _, t := range report.Tenants {
			denials += t.AdmissionDenials
		}
		l["tenancy.admission_denials"] = float64(denials)
		l["tenancy.rebalances"] = float64(report.Rebalances)
	}
	var mean [6]float64
	var total float64
	for _, sp := range spans {
		for j, v := range [...]int64{sp.DecodeNs, sp.QueueNs, sp.StallNs, sp.CoalesceNs, sp.ApplyNs, sp.AckNs} {
			mean[j] += float64(v)
		}
		total += float64(sp.TotalNs())
	}
	n := float64(len(spans))
	for j, name := range [...]string{"decode", "queue", "stall", "coalesce", "apply", "ack"} {
		l["serve."+name+"_us"] = frac(mean[j], n) / 1e3
	}
	l["serve.spans"] = n
	l["serve.records_per_apply"] = frac(apply1.Sum-apply0.Sum, float64(apply1.Count-apply0.Count))
	var sends []float64
	for _, s := range ss {
		sends = append(sends, s.sendNs...)
	}
	l["serve.client_send_us"] = meanOf(sends) / 1e3
	// Share of the clients' send→ack latency the server's spans explain.
	l["bench.layer_coverage"] = frac(frac(total, n), wallLatMean)
	runtimeLayers(l, gc0, gc1, c.accesses)
	c.layers = l
	c.layerSamples = map[string]int{"serve spans": len(spans), "client sends": len(sends), "acked batches": len(c.latNs)}
	return c
}

// coalesced reads the serve layer's coalesced-records histogram.
func coalesced(r *telemetry.Registry) telemetry.HistogramSnapshot {
	h, _ := r.Snapshot()["artmem_serve_coalesced_records"].(telemetry.HistogramSnapshot)
	return h
}

func meanOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return frac(s, float64(len(v)))
}
