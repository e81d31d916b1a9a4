package serve

import (
	"errors"
	"testing"

	"artmem/internal/telemetry"
)

// vClock is a hand-advanced deterministic clock plus a stall counter —
// the lockstep stand-ins for the machine's virtual time and the core's
// control-busy counter.
type vClock struct {
	now   int64
	stall int64
}

func (c *vClock) clock() func() int64 { return func() int64 { return c.now } }
func (c *vClock) stallFn() func() int64 {
	return func() int64 { return c.stall }
}

// spanServer builds a lockstep server over a fake backend with span
// recording at rate 1 and the virtual clock installed.
func spanServer(t *testing.T, clk *vClock) (*Server, *fakeBackend, *telemetry.SpanJournal, *telemetry.SLOMonitor) {
	t.Helper()
	fb := newFakeBackend(2)
	j := telemetry.NewSpanJournal(64, 1)
	slo := telemetry.NewSLOMonitor(
		[]telemetry.SLOObjective{telemetry.LatencySLO(), telemetry.BatchSLO()},
		nil, clk.clock())
	s := NewServer(Config{
		Backend: fb,
		Clock:   clk.clock(),
		Spans:   j,
		StallNs: clk.stallFn(),
		SLO:     slo,
	})
	return s, fb, j, slo
}

func TestSpanStageAttribution(t *testing.T) {
	clk := &vClock{now: 1000}
	s, _, j, _ := spanServer(t, clk)

	recs := []Record{{Op: OpAccess, Addr: 1}, {Op: OpAccess, Addr: 2}}
	if err := s.SubmitTimed(0, 7, recs, 40, nil); err != nil {
		t.Fatal(err)
	}
	// While queued: 300ns pass, 100 of them control-loop stall.
	clk.now += 300
	clk.stall += 100
	if s.Pump(0) != 1 {
		t.Fatal("pump retired nothing")
	}
	if n := len(j.Spans(0)); n != 1 {
		t.Fatalf("journal holds %d spans, want 1", n)
	}
	sp := j.Spans(0)[0]
	if sp.Outcome != telemetry.SpanAcked || sp.Tenant != 0 || sp.ClientSeq != 7 || sp.Records != 2 {
		t.Fatalf("span header wrong: %+v", sp)
	}
	if sp.StartNs != 1000 {
		t.Fatalf("start = %d, want 1000", sp.StartNs)
	}
	if sp.DecodeNs != 40 {
		t.Fatalf("decode = %d, want 40", sp.DecodeNs)
	}
	if sp.StallNs != 100 {
		t.Fatalf("stall = %d, want 100", sp.StallNs)
	}
	if sp.QueueNs != 200 {
		t.Fatalf("queue = %d, want 300-100=200", sp.QueueNs)
	}
	// The static clock makes coalesce/apply/ack zero-length here.
	if sp.CoalesceNs != 0 || sp.ApplyNs != 0 || sp.AckNs != 0 {
		t.Fatalf("static-clock stages nonzero: %+v", sp)
	}
}

func TestSpanRejectedOutcome(t *testing.T) {
	clk := &vClock{}
	s, fb, j, slo := spanServer(t, clk)
	if err := s.Submit(0, 1, []Record{{Op: OpAccess, Addr: 9}}, nil); err != nil {
		t.Fatal(err)
	}
	fb.setErr(0, errors.New("slot draining"))
	clk.now += 50
	s.Pump(0)
	sp := j.Spans(0)[0]
	if sp.Outcome != telemetry.SpanRejected {
		t.Fatalf("outcome = %q, want rejected", sp.Outcome)
	}
	if sp.ApplyNs != 0 || sp.CoalesceNs != 0 {
		t.Fatalf("rejected span has apply stages: %+v", sp)
	}
	if sp.QueueNs != 50 {
		t.Fatalf("queue = %d, want 50", sp.QueueNs)
	}
	// The loss lands in the SLO monitor.
	rep := slo.Report()
	if rep.Tenants[0].Windows[0].Lost != 1 {
		t.Fatalf("SLO lost = %d, want 1", rep.Tenants[0].Windows[0].Lost)
	}
}

func TestSpanSamplingDisabledIsNil(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb})
	done := 0
	if err := s.Submit(0, 1, []Record{{Op: OpAccess, Addr: 1}}, func(Result) { done++ }); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	if done != 1 {
		t.Fatal("batch did not resolve with spans disabled")
	}
	if s.spans.Spans(0) != nil {
		t.Fatal("nil journal recorded a span")
	}
}

func TestSpanSLOLatencyBreach(t *testing.T) {
	clk := &vClock{}
	s, _, _, slo := spanServer(t, clk)
	// Tenant 0 is the latency class (2ms objective): a 5ms queue wait
	// breaches; tenant 1 (batch, 50ms) does not.
	for slot := 0; slot < 2; slot++ {
		if err := s.Submit(slot, 1, []Record{{Op: OpAccess, Addr: 1}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	clk.now += 5_000_000
	s.Pump(0)
	s.Pump(1)
	rep := slo.Report()
	if got := rep.Tenants[0].Windows[0].LatencyBreaches; got != 1 {
		t.Fatalf("latency-class breaches = %d, want 1", got)
	}
	if got := rep.Tenants[1].Windows[0].LatencyBreaches; got != 0 {
		t.Fatalf("batch-class breaches = %d, want 0", got)
	}
	if b := rep.Tenants[0].Windows[0].LatencyBurn; b <= 1 {
		t.Fatalf("latency burn = %v, want > 1", b)
	}
}

// TestSpanJournalOverLoopback drives the full network stack with
// rate-1 sampling and checks every acked batch produced a span whose
// stages are consistent.
func TestSpanJournalOverLoopback(t *testing.T) {
	lb, err := StartLoopbackCfg(LoopbackConfig{
		Workload: "YCSB", Div: 4096, SpanRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	rep, err := Run(LoadConfig{
		Addr: lb.Addr(), Clients: 2, Workload: "YCSB",
		Div: 4096, Accesses: 4096, Batch: 256, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d batches", rep.Lost)
	}
	spans := lb.Spans.Spans(0)
	if uint64(lb.Spans.Total()) < rep.Acked {
		t.Fatalf("journal total %d < acked %d at rate 1", lb.Spans.Total(), rep.Acked)
	}
	for _, sp := range spans {
		if sp.Outcome != telemetry.SpanAcked {
			t.Fatalf("loopback span not acked: %+v", sp)
		}
		if sp.QueueNs < 0 || sp.StallNs < 0 || sp.ApplyNs < 0 || sp.AckNs < 0 || sp.DecodeNs < 0 {
			t.Fatalf("negative stage: %+v", sp)
		}
	}
	if b := StageBreakdownOf(spans); b == nil || b.Spans == 0 {
		t.Fatal("no stage breakdown from a rate-1 run")
	}
	// The SLO monitor saw the traffic.
	if lb.SLO.Report().Tenants[0].Windows[0].Batches == 0 {
		t.Fatal("SLO monitor observed no batches")
	}
	// Quantile series materialized on the shared registry.
	snap := lb.Registry.Snapshot()
	if _, ok := snap["artmem_serve_batch_latency_ns_p99"]; !ok {
		t.Fatal("registry missing artmem_serve_batch_latency_ns_p99")
	}
}
