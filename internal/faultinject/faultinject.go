// Package faultinject provides a deterministic, seedable fault injector
// for the ArtMem stack. The paper's kernel prototype runs against real
// hardware where migrations fail (busy or pinned pages make
// migrate_pages return -EAGAIN), PEBS buffers overflow, sampling goes
// dry, and memory bandwidth degrades under contention. The simulator's
// happy path models none of that, so this package supplies the fault
// surface the resilience machinery is tested against:
//
//   - transient migration failures (memsim.ErrMigrationBusy), with a
//     probability-plus-burst model — busy pages stay busy for a while —
//     and scheduled outage windows during which every migration fails;
//   - PEBS sample drops (the event is lost entirely, as when the PMU is
//     reprogrammed or the sampling interrupt is throttled) by
//     probability, by window, or on a periodic schedule;
//   - PEBS ring-buffer overflow windows, during which the buffer behaves
//     as full (records are lost but the PMU's window counters survive);
//   - bandwidth-degradation intervals that multiply migration transfer
//     cost, modelling a contended or throttled memory bus.
//
// All decisions derive from an explicitly seeded RNG and the machine's
// virtual clock, so a fault schedule replays bit-for-bit: identical
// configurations and access streams produce identical fault sequences,
// which is what makes chaos tests reproducible.
//
// The Injector implements memsim.FaultInjector (migration + bandwidth
// hooks) and pebs.Injector (sample-drop + overflow hooks). Like the
// Machine it instruments, it is not safe for concurrent use; the online
// runtime serializes access to it behind the System mutex.
package faultinject

import (
	"math"

	"artmem/internal/dist"
)

// Window is a half-open interval [StartNs, EndNs) of virtual time.
type Window struct {
	StartNs int64
	EndNs   int64
}

// Contains reports whether now falls inside the window.
func (w Window) Contains(now int64) bool {
	return now >= w.StartNs && now < w.EndNs
}

// Periodic describes a repeating fault window: within every PeriodNs of
// virtual time (phase-shifted by OffsetNs), the fault is active for the
// first DurationNs. The zero value is never active.
type Periodic struct {
	PeriodNs   int64
	DurationNs int64
	OffsetNs   int64
}

// Active reports whether the periodic fault is active at virtual time now.
func (p Periodic) Active(now int64) bool {
	if p.PeriodNs <= 0 || p.DurationNs <= 0 {
		return false
	}
	phase := (now - p.OffsetNs) % p.PeriodNs
	if phase < 0 {
		phase += p.PeriodNs
	}
	return phase < p.DurationNs
}

func anyActive(windows []Window, periodic Periodic, now int64) bool {
	for _, w := range windows {
		if w.Contains(now) {
			return true
		}
	}
	return periodic.Active(now)
}

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision. Two injectors built from
	// the same Config observe identical fault sequences when consulted
	// with identical call sequences.
	Seed uint64

	// MigrationFailProb is the per-attempt probability that a MovePage
	// call fails transiently with memsim.ErrMigrationBusy.
	MigrationFailProb float64
	// MigrationBurstMean, when > 1, turns independent failures into
	// bursts: once a failure fires, a geometric number of subsequent
	// attempts (mean MigrationBurstMean) also fail — a busy page stays
	// busy across immediate retries, as on real hardware.
	MigrationBurstMean float64
	// MigrationOutages are windows during which every migration fails.
	MigrationOutages []Window
	// MigrationOutagePeriodic is a repeating migration outage.
	MigrationOutagePeriodic Periodic

	// SampleDropProb is the per-sample probability that a PEBS record is
	// lost entirely (not even counted toward the sampled window ratio).
	SampleDropProb float64
	// SampleDropWindows are total sampling outages: every sample in the
	// window is lost, so the agent's signal goes dry.
	SampleDropWindows []Window
	// SampleDropPeriodic is a repeating sampling outage.
	SampleDropPeriodic Periodic

	// RingOverflowWindows are intervals during which the PEBS ring buffer
	// behaves as full: records are dropped (counted as overflow) but the
	// per-tier window counters still accumulate.
	RingOverflowWindows []Window
	// RingOverflowPeriodic is a repeating overflow window.
	RingOverflowPeriodic Periodic

	// BandwidthDegradeFactor multiplies migration transfer cost during
	// degradation windows. Values <= 1 disable degradation.
	BandwidthDegradeFactor float64
	// BandwidthDegradeWindows are the degradation intervals.
	BandwidthDegradeWindows []Window
	// BandwidthDegradePeriodic is a repeating degradation interval.
	BandwidthDegradePeriodic Periodic

	// TenantCrashProb is the per-lifecycle-boundary probability that a
	// tenant crashes (is force-deregistered mid-migration-period).
	TenantCrashProb float64
	// TenantCrashWindows are crash storms: a crash fires at every
	// lifecycle boundary inside the window.
	TenantCrashWindows []Window
	// TenantCrashPeriodic is a repeating crash storm.
	TenantCrashPeriodic Periodic

	// ReclaimInterruptProb is the per-page probability that a tenant
	// reclamation transaction is interrupted and rolled back.
	ReclaimInterruptProb float64
	// ReclaimInterruptWindows are intervals during which every
	// reclamation step is interrupted (drains cannot complete).
	ReclaimInterruptWindows []Window
	// ReclaimInterruptPeriodic is a repeating reclamation outage.
	ReclaimInterruptPeriodic Periodic

	// ArrivalBurstProb is the per-opportunity probability that a burst
	// of extra tenant registrations arrives (a thundering herd).
	ArrivalBurstProb float64
	// ArrivalBurstMax caps the extra arrivals per burst; < 1 means 1.
	ArrivalBurstMax int
	// ArrivalBurstWindows are intervals during which every registration
	// opportunity bursts.
	ArrivalBurstWindows []Window
	// ArrivalBurstPeriodic is a repeating arrival-burst schedule.
	ArrivalBurstPeriodic Periodic
}

// Stats counts the faults an Injector has delivered.
type Stats struct {
	// MigrationFailures is the number of MovePage attempts failed.
	MigrationFailures uint64
	// DroppedSamples is the number of PEBS records lost entirely.
	DroppedSamples uint64
	// OverflowedSamples is the number of records lost to injected ring
	// overflow.
	OverflowedSamples uint64
	// DegradedMigrations is the number of migrations that paid the
	// bandwidth-degradation penalty.
	DegradedMigrations uint64
	// TenantCrashes is the number of tenant-crash faults delivered.
	TenantCrashes uint64
	// ReclaimInterrupts is the number of reclamation steps interrupted.
	ReclaimInterrupts uint64
	// ArrivalBurstEvents counts arrival bursts; ArrivalBurstExtra is
	// the total extra registrations those bursts injected.
	ArrivalBurstEvents uint64
	ArrivalBurstExtra  uint64
}

// Injector delivers faults according to a Config. It implements
// memsim.FaultInjector and pebs.Injector.
type Injector struct {
	cfg Config

	// Independent streams per fault class keep decisions reproducible
	// even when call interleavings differ between runs.
	rngMig   *dist.RNG
	rngSmp   *dist.RNG
	rngCrash *dist.RNG
	rngRcl   *dist.RNG
	rngArr   *dist.RNG

	burstLeft int // remaining forced failures of the current burst

	stats Stats
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:      cfg,
		rngMig:   dist.NewRNG(cfg.Seed ^ 0xfa117a11),
		rngSmp:   dist.NewRNG(cfg.Seed ^ 0x5a3b1edb),
		rngCrash: dist.NewRNG(cfg.Seed ^ 0xc4a5bdea),
		rngRcl:   dist.NewRNG(cfg.Seed ^ 0x4ec1a132),
		rngArr:   dist.NewRNG(cfg.Seed ^ 0xa441b075),
	}
}

// Stats returns a snapshot of the fault counters.
func (i *Injector) Stats() Stats { return i.stats }

// FailMigration reports whether the current MovePage attempt should fail
// transiently. Implements memsim.FaultInjector.
func (i *Injector) FailMigration(now int64) bool {
	if anyActive(i.cfg.MigrationOutages, i.cfg.MigrationOutagePeriodic, now) {
		i.stats.MigrationFailures++
		return true
	}
	if i.burstLeft > 0 {
		i.burstLeft--
		i.stats.MigrationFailures++
		return true
	}
	if i.cfg.MigrationFailProb <= 0 || i.rngMig.Float64() >= i.cfg.MigrationFailProb {
		return false
	}
	if mean := i.cfg.MigrationBurstMean; mean > 1 {
		// Geometric burst length with the configured mean: the failure
		// that fires now plus burstLeft forced follow-ups.
		u := i.rngMig.Float64()
		if u < math.SmallestNonzeroFloat64 {
			u = math.SmallestNonzeroFloat64
		}
		i.burstLeft = int(math.Log(u) / math.Log(1-1/mean))
	}
	i.stats.MigrationFailures++
	return true
}

// BandwidthFactor returns the multiplier applied to migration transfer
// cost at virtual time now (1 outside degradation windows). Implements
// memsim.FaultInjector.
func (i *Injector) BandwidthFactor(now int64) float64 {
	if i.cfg.BandwidthDegradeFactor <= 1 {
		return 1
	}
	if !anyActive(i.cfg.BandwidthDegradeWindows, i.cfg.BandwidthDegradePeriodic, now) {
		return 1
	}
	i.stats.DegradedMigrations++
	return i.cfg.BandwidthDegradeFactor
}

// DropSample reports whether the PEBS record at virtual time now is lost
// entirely. Implements pebs.Injector.
func (i *Injector) DropSample(now int64) bool {
	if anyActive(i.cfg.SampleDropWindows, i.cfg.SampleDropPeriodic, now) {
		i.stats.DroppedSamples++
		return true
	}
	if i.cfg.SampleDropProb > 0 && i.rngSmp.Float64() < i.cfg.SampleDropProb {
		i.stats.DroppedSamples++
		return true
	}
	return false
}

// RingOverflow reports whether the PEBS ring buffer behaves as full at
// virtual time now. Implements pebs.Injector.
func (i *Injector) RingOverflow(now int64) bool {
	if anyActive(i.cfg.RingOverflowWindows, i.cfg.RingOverflowPeriodic, now) {
		i.stats.OverflowedSamples++
		return true
	}
	return false
}
