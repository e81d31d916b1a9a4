// Package pebs models Intel PEBS-style hardware event sampling, the
// access-monitoring substrate used by ArtMem and MEMTIS.
//
// A Sampler observes every cache-missing memory access (via the
// memsim.Sampler hook) and records every Nth event into a bounded ring
// buffer, exactly as a PMU configured with a sampling period of N would.
// When the ring buffer is full, new samples are dropped (real PEBS
// overwrites or loses records when the buffer is not drained in time) and
// the drops are counted.
//
// The sampler also maintains per-tier counts of sampled events since the
// last window reset; the ratio of those counts is the signal ArtMem's RL
// state is built from (Equation 1 of the paper). Note this is the sampled
// view — it can differ from the machine's exact counters, and it can be
// empty when the CPU cache absorbed all accesses, which is precisely the
// situation ArtMem's extra "no events" state exists for.
//
// A Sampler is single-threaded and attaches to exactly one machine. On
// a memsim.ShardedMachine (DESIGN.md §12) one Sampler observes every
// shard's misses, translated to global page IDs, so the one agent on
// top sees the machine-wide sampled ratio.
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
	// ring buffer nor the per-tier window counters see it. This models
	// sampling going dry (PMU reprogramming, interrupt throttling).
	DropSample(now int64) bool
	// RingOverflow reports whether the ring buffer behaves as full: the
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
	// RingSize is the capacity of the sample ring buffer.
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
	ring    []Sample
	head    int // next slot to write
	count   int // valid samples in the ring

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
		cfg:  cfg,
		ring: make([]Sample, cfg.RingSize),
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
	full := s.count == len(s.ring) || (s.injector != nil && s.injector.RingOverflow(now))
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
	s.ring[s.head] = Sample{Page: page, Tier: tier, Write: write, Time: now}
	s.head = (s.head + 1) % len(s.ring)
	s.count++
}

// Drain invokes fn on every buffered sample in arrival order and empties
// the buffer. It returns the number of samples drained. This models the
// sampling thread reading the PEBS buffer (paper §4.4).
func (s *Sampler) Drain(fn func(Sample)) int {
	n := s.count
	idx := s.head - s.count
	if idx < 0 {
		idx += len(s.ring)
	}
	for i := 0; i < n; i++ {
		fn(s.ring[idx])
		idx = (idx + 1) % len(s.ring)
	}
	s.count = 0
	return n
}

// Pending returns the number of undrained samples.
func (s *Sampler) Pending() int { return s.count }

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
// subset are journaled as they are recorded or lost to ring overflow.
func (s *Sampler) SetPageTrace(pt *telemetry.PageTrace) { s.pageTrace = pt }

// Total returns the cumulative number of samples recorded (including
// dropped ones).
func (s *Sampler) Total() uint64 { return s.total }

// Stats is a snapshot of the sampler's accounting, the unit the
// telemetry layer scrapes.
type Stats struct {
	// Taken counts samples the period selected and the injector let
	// through (including ones later lost to ring overflow).
	Taken uint64
	// Dropped counts samples lost to ring-buffer overflow.
	Dropped uint64
	// InjectedDrops counts samples lost entirely to a fault injector.
	InjectedDrops uint64
	// Pending is the current undrained ring occupancy.
	Pending int
	// Period is the current sampling period.
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

// Period returns the current sampling period.
func (s *Sampler) Period() uint64 { return s.cfg.Period }

// SetPeriod changes the sampling period. The paper dynamically adjusts
// the period to bound sampling overhead (§6.4); the harness and the
// ArtMem core use this to trade accuracy for overhead. Periods < 1 are
// clamped to 1.
func (s *Sampler) SetPeriod(p uint64) {
	if p < 1 {
		p = 1
	}
	s.cfg.Period = p
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
