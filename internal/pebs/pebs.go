// Package pebs models Intel PEBS-style hardware event sampling, the
// access-monitoring substrate used by ArtMem and MEMTIS.
//
// A Sampler observes every cache-missing memory access (via the
// memsim.Sampler hook) and records every Nth event into a bounded
// buffer, exactly as a PMU configured with a sampling period of N would.
// When the buffer is full, new samples are dropped (real PEBS overwrites
// or loses records when the buffer is not drained in time) and the drops
// are counted. Every Drain empties the buffer and the next record lands
// in slot 0 again, so a sampling period touches only the slots it fills.
//
// The sampler also maintains per-tier counts of sampled events since the
// last window reset; the ratio of those counts is the signal ArtMem's RL
// state is built from (Equation 1 of the paper). Note this is the sampled
// view — it can differ from the machine's exact counters, and it can be
// empty when the CPU cache absorbed all accesses, which is precisely the
// situation ArtMem's extra "no events" state exists for.
//
// A Sampler is single-threaded and attaches to exactly one machine.
package pebs

import (
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
)

// Injector lets a chaos harness perturb the sampling path.
// internal/faultinject implements it; the sampler consults it (when
// installed) on every event that the sampling period selects.
type Injector interface {
	// DropSample reports whether the record is lost entirely: neither the
	// sample buffer nor the per-tier window counters see it. This models
	// sampling going dry (PMU reprogramming, interrupt throttling).
	DropSample(now int64) bool
	// RingOverflow reports whether the sample buffer behaves as full: the
	// record is dropped but the window counters still accumulate, exactly
	// like a genuine buffer overflow.
	RingOverflow(now int64) bool
}

// Sample is one recorded memory-access event.
type Sample struct {
	Page  memsim.PageID
	Tier  memsim.TierID
	Write bool
	// Time is the virtual timestamp at which the event was recorded.
	Time int64
}

// Config parameterizes a Sampler.
type Config struct {
	// Period records one sample per Period cache-missing accesses. The
	// paper initializes it to 200. Must be >= 1.
	Period uint64
	// RingSize is the capacity of the sample buffer.
	RingSize int
	// SampleCostNs is the background CPU cost per recorded sample
	// (the PEBS assist plus the sampling thread's processing). Charged
	// through the Charge hook; the paper reports sampling overhead of at
	// most 3% of a CPU (§6.4).
	SampleCostNs float64
	// Charge, when non-nil, receives background CPU charges.
	Charge func(ns float64)
}

// DefaultConfig returns the paper's sampling configuration.
func DefaultConfig() Config {
	return Config{
		Period:       200,
		RingSize:     64 * 1024,
		SampleCostNs: 20,
	}
}

// Sampler implements memsim.Sampler. It is not safe for concurrent use.
type Sampler struct {
	cfg     Config
	counter uint64
	// buf[:count] holds the undrained samples in arrival order. Drain
	// empties it, so the next sample always goes to buf[count].
	buf   []Sample
	count int

	dropped       uint64
	injectedDrops uint64
	total         uint64 // samples recorded since construction

	injector Injector

	// pageTrace, when non-nil, journals samples for its hash-selected
	// page subset (nil keeps the hot path to a single branch).
	pageTrace *telemetry.PageTrace

	// Per-window sampled-event counters, reset by WindowCounts.
	winFast uint64
	winSlow uint64
}

// New returns a Sampler with the given configuration. A Period of 0 is
// treated as 1 (sample everything); a RingSize of 0 uses the default.
func New(cfg Config) *Sampler {
	if cfg.Period == 0 {
		cfg.Period = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultConfig().RingSize
	}
	return &Sampler{
		cfg: cfg,
		buf: make([]Sample, cfg.RingSize),
	}
}

var _ memsim.Sampler = (*Sampler)(nil)

// OnMiss implements memsim.Sampler: it counts down the sampling period
// and records one event each time the period elapses.
func (s *Sampler) OnMiss(page memsim.PageID, tier memsim.TierID, write bool, now int64) {
	s.counter++
	if s.counter < s.cfg.Period {
		return
	}
	s.counter = 0
	if s.injector != nil && s.injector.DropSample(now) {
		// The record is lost before anything observes it: the window
		// counters stay flat, so the agent's signal genuinely goes dry.
		s.injectedDrops++
		return
	}
	if tier == memsim.Fast {
		s.winFast++
	} else {
		s.winSlow++
	}
	s.total++
	if s.cfg.Charge != nil && s.cfg.SampleCostNs > 0 {
		s.cfg.Charge(s.cfg.SampleCostNs)
	}
	full := s.count == len(s.buf) || (s.injector != nil && s.injector.RingOverflow(now))
	if s.pageTrace.Sampled(uint64(page)) {
		outcome := telemetry.OutcomeRecorded
		if full {
			outcome = telemetry.OutcomeRingDropped
		}
		s.pageTrace.Append(telemetry.PageEvent{
			TimeNs:  now,
			Page:    uint64(page),
			Kind:    telemetry.PageKindSample,
			Tier:    tier.String(),
			Outcome: outcome,
		})
	}
	if full {
		s.dropped++
		return
	}
	s.buf[s.count] = Sample{Page: page, Tier: tier, Write: write, Time: now}
	s.count++
}

// Drain invokes fn on every buffered sample in arrival order and empties
// the buffer. It returns the number of samples drained. This models the
// sampling thread reading the PEBS buffer (paper §4.4).
//
// The buffer is emptied before the first call to fn, so no sample is
// ever delivered twice: if fn panics, the samples after the one it
// panicked on are lost, and the next Drain sees only newer samples. fn
// must not feed the sampler: a sample recorded during the drain would
// reuse a slot still being delivered.
func (s *Sampler) Drain(fn func(Sample)) int {
	pending := s.buf[:s.count]
	s.count = 0
	for _, smp := range pending {
		fn(smp)
	}
	return len(pending)
}

// Dropped returns the cumulative number of samples lost to buffer
// overflow (genuine or injected).
func (s *Sampler) Dropped() uint64 { return s.dropped }

// InjectedDrops returns the number of samples lost entirely to an
// installed fault injector (before even the window counters saw them).
func (s *Sampler) InjectedDrops() uint64 { return s.injectedDrops }

// SetInjector installs a fault injector on the sampling path (nil to
// remove).
func (s *Sampler) SetInjector(fi Injector) { s.injector = fi }

// SetPageTrace installs a page-lifecycle trace on the sampling path
// (nil to remove). Samples for pages in the trace's hash-selected
// subset are journaled as they are recorded or lost to buffer overflow.
func (s *Sampler) SetPageTrace(pt *telemetry.PageTrace) { s.pageTrace = pt }

// Total returns the cumulative number of samples recorded (including
// dropped ones).
func (s *Sampler) Total() uint64 { return s.total }

// Stats is a snapshot of the sampler's accounting, the unit the
// telemetry layer scrapes.
type Stats struct {
	// Taken counts samples the period selected and the injector let
	// through (including ones later lost to buffer overflow).
	Taken uint64
	// Dropped counts samples lost to buffer overflow.
	Dropped uint64
	// InjectedDrops counts samples lost entirely to a fault injector.
	InjectedDrops uint64
	// Pending is the current undrained buffer occupancy.
	Pending int
	// Period is the sampling period.
	Period uint64
}

// Stats returns a snapshot of the sampler's counters. Like the rest of
// the Sampler it is not safe for concurrent use; the online runtime
// calls it under its lock.
func (s *Sampler) Stats() Stats {
	return Stats{
		Taken:         s.total,
		Dropped:       s.dropped,
		InjectedDrops: s.injectedDrops,
		Pending:       s.count,
		Period:        s.cfg.Period,
	}
}

// WindowCounts returns the per-tier sampled-event counts accumulated
// since the previous call, then resets them. ArtMem computes its RL state
// from exactly these two numbers (Equation 1).
func (s *Sampler) WindowCounts() (fast, slow uint64) {
	fast, slow = s.winFast, s.winSlow
	s.winFast, s.winSlow = 0, 0
	return fast, slow
}

// PeekWindowCounts returns the current window counters without resetting.
func (s *Sampler) PeekWindowCounts() (fast, slow uint64) {
	return s.winFast, s.winSlow
}
