package harness

import (
	"math"
	"testing"

	"artmem/internal/core"
	"artmem/internal/faultinject"
	"artmem/internal/telemetry"
	"artmem/internal/workloads"
)

// chaosWorkload builds a fresh XSBench instance at test scale. Each run
// needs its own instance (workloads are single-use).
func chaosWorkload(t *testing.T) (workloads.Workload, int64) {
	t.Helper()
	spec, err := workloads.ByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	prof := workloads.QuickProfile()
	return spec.New(prof), prof.PageSize()
}

// chaosSchedule is the acceptance-criteria fault mix: 10% transient
// migration failures (with bursts, as busy pages stay busy) plus a
// periodic sampling outage that goes dry for a fifth of every 10ms of
// virtual time.
func chaosSchedule() *faultinject.Config {
	return &faultinject.Config{
		Seed:               99,
		MigrationFailProb:  0.10,
		MigrationBurstMean: 3,
		SampleDropPeriodic: faultinject.Periodic{
			PeriodNs:   10_000_000,
			DurationNs: 2_000_000,
		},
	}
}

func runChaos(t *testing.T, faults *faultinject.Config) (Result, core.FaultStats) {
	t.Helper()
	w, pageSize := chaosWorkload(t)
	pol := core.New(core.Config{Seed: 1})
	res := Run(w, pol, Config{
		PageSize:        pageSize,
		Ratio:           Ratio{Fast: 1, Slow: 4},
		Faults:          faults,
		CheckInvariants: true,
	})
	return res, pol.FaultStats()
}

func TestChaosHitRatioWithinBoundOfFaultFree(t *testing.T) {
	base, _ := runChaos(t, nil)
	faulty, fs := runChaos(t, chaosSchedule())

	if base.InvariantErr != nil {
		t.Fatalf("fault-free run violated invariants: %v", base.InvariantErr)
	}
	if faulty.InvariantErr != nil {
		t.Fatalf("chaos run violated invariants: %v", faulty.InvariantErr)
	}
	// The schedule must actually have injected faults and the policy must
	// actually have absorbed them — otherwise the bound is vacuous.
	if faulty.FaultStats.MigrationFailures == 0 {
		t.Fatal("fault schedule injected no migration failures")
	}
	if faulty.FaultStats.DroppedSamples == 0 {
		t.Fatal("fault schedule dropped no samples")
	}
	if fs.Retries == 0 {
		t.Error("policy recorded no retries under 10% failure rate")
	}
	// Acceptance bound: hit ratio within 15% (relative) of fault-free.
	if base.DRAMRatio <= 0 {
		t.Fatalf("fault-free DRAM ratio %g", base.DRAMRatio)
	}
	rel := math.Abs(faulty.DRAMRatio-base.DRAMRatio) / base.DRAMRatio
	if rel > 0.15 {
		t.Errorf("chaos DRAM ratio %.4f vs fault-free %.4f: %.1f%% apart, want <= 15%%",
			faulty.DRAMRatio, base.DRAMRatio, rel*100)
	}
	t.Logf("fault-free ratio %.4f, chaos ratio %.4f (%.1f%% apart); %d injected failures, %d retries, %d skips, %d degraded ticks",
		base.DRAMRatio, faulty.DRAMRatio, rel*100,
		faulty.FaultStats.MigrationFailures, fs.Retries, fs.SkippedPages, fs.DegradedTicks)
}

func TestChaosTotalMigrationOutageStillTerminates(t *testing.T) {
	// Every migration fails for the whole run: the control loop must
	// finish the workload (skip-and-continue, never abort or spin) with
	// zero migrations and intact accounting.
	res, fs := runChaos(t, &faultinject.Config{
		MigrationOutages: []faultinject.Window{{StartNs: 0, EndNs: math.MaxInt64}},
	})
	if res.InvariantErr != nil {
		t.Fatalf("invariants: %v", res.InvariantErr)
	}
	if res.Migrations != 0 {
		t.Errorf("%d migrations during a total outage", res.Migrations)
	}
	if res.Ticks == 0 {
		t.Error("control loop stopped ticking under the outage")
	}
	if fs.SkippedPages == 0 {
		t.Error("no skips recorded during a total outage")
	}
}

func TestChaosHeavyMixedFaults(t *testing.T) {
	// Heavier-than-acceptance mix: bursty migration failures, periodic
	// sampling outages, ring overflow, and 4x bandwidth degradation, all
	// at once. The run must stay consistent; performance may suffer.
	res, _ := runChaos(t, &faultinject.Config{
		Seed:               5,
		MigrationFailProb:  0.35,
		MigrationBurstMean: 6,
		SampleDropPeriodic: faultinject.Periodic{PeriodNs: 5_000_000, DurationNs: 2_500_000},
		RingOverflowWindows: []faultinject.Window{
			{StartNs: 20_000_000, EndNs: 40_000_000},
		},
		BandwidthDegradeFactor: 4,
		BandwidthDegradePeriodic: faultinject.Periodic{
			PeriodNs: 8_000_000, DurationNs: 4_000_000,
		},
	})
	if res.InvariantErr != nil {
		t.Fatalf("invariants under heavy faults: %v", res.InvariantErr)
	}
	if res.FaultStats.MigrationFailures == 0 || res.FaultStats.DroppedSamples == 0 {
		t.Errorf("heavy schedule was inert: %+v", res.FaultStats)
	}
	if res.DRAMRatio < 0 || res.DRAMRatio > 1 {
		t.Errorf("DRAM ratio %g out of range", res.DRAMRatio)
	}
}

func TestChaosDeterministicReplay(t *testing.T) {
	// Chaos runs are reproducible: identical workload, policy, and fault
	// schedule produce bit-identical results.
	a, _ := runChaos(t, chaosSchedule())
	b, _ := runChaos(t, chaosSchedule())
	if a.ExecNs != b.ExecNs || a.DRAMRatio != b.DRAMRatio ||
		a.Migrations != b.Migrations || a.FaultStats != b.FaultStats {
		t.Errorf("chaos replay diverged:\n a: exec=%d ratio=%g mig=%d faults=%+v\n b: exec=%d ratio=%g mig=%d faults=%+v",
			a.ExecNs, a.DRAMRatio, a.Migrations, a.FaultStats,
			b.ExecNs, b.DRAMRatio, b.Migrations, b.FaultStats)
	}
}

func TestChaosSamplingOutageDegradesAndRecovers(t *testing.T) {
	// A long total sampling blackout in the middle of the run: the agent
	// must enter degraded mode during the blackout and re-engage RL
	// afterwards, ending the run out of degraded mode.
	w, pageSize := chaosWorkload(t)
	// The quick-profile run spans ~8 default 10ms decision periods, so
	// decide every 2ms instead: the 40ms mid-run blackout then covers
	// ~20 periods, more than the 8 empty windows that trip degraded
	// mode, with live samples on both sides.
	pol := core.New(core.Config{Seed: 1, TickInterval: 2_000_000})
	res := Run(w, pol, Config{
		PageSize: pageSize,
		Ratio:    Ratio{Fast: 1, Slow: 4},
		Faults: &faultinject.Config{
			SampleDropWindows: []faultinject.Window{
				{StartNs: 20_000_000, EndNs: 60_000_000},
			},
		},
		CheckInvariants: true,
	})
	if res.InvariantErr != nil {
		t.Fatalf("invariants: %v", res.InvariantErr)
	}
	fs := pol.FaultStats()
	if fs.DegradedEntries == 0 {
		t.Error("sampling blackout never tripped degraded mode")
	}
	if fs.DegradedTicks == 0 {
		t.Error("no degraded ticks recorded")
	}
	// The agent's last mode change in its decision trace must be the
	// re-engagement.
	entered, degraded := false, false
	for _, e := range pol.Telemetry().Trace.Events(0) {
		switch e.Kind {
		case telemetry.KindDegraded:
			entered, degraded = true, true
		case telemetry.KindReengaged:
			degraded = false
		}
	}
	if !entered {
		t.Error("decision trace holds no degraded-mode entry")
	}
	if degraded {
		t.Error("agent still degraded after samples returned")
	}
}
