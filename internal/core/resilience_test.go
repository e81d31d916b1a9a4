package core

import (
	"sync/atomic"
	"testing"
	"time"

	"artmem/internal/faultinject"
	"artmem/internal/lru"
	"artmem/internal/memsim"
)

// scriptedInjector fails exactly the MovePage attempts whose 0-based
// index appears in failAt, and (optionally) drops all samples while
// dropSamples is set. It implements both memsim.FaultInjector and
// pebs.Injector, like the real chaos injector.
type scriptedInjector struct {
	failAt      map[int]bool
	failAll     bool
	attempt     int
	dropSamples atomic.Bool
}

func (s *scriptedInjector) FailMigration(now int64) bool {
	fail := s.failAll || s.failAt[s.attempt]
	s.attempt++
	return fail
}

func (s *scriptedInjector) BandwidthFactor(now int64) float64 { return 1 }
func (s *scriptedInjector) DropSample(now int64) bool         { return s.dropSamples.Load() }
func (s *scriptedInjector) RingOverflow(now int64) bool       { return false }

// checkListTierConsistency verifies every listed page is on a list of
// the tier it actually resides in — the list/tier divergence the
// transactional migration path must prevent.
func checkListTierConsistency(t *testing.T, a *ArtMem, m *memsim.Machine) {
	t.Helper()
	for p := 0; p < m.NumPages(); p++ {
		id := a.lists.ListOf(memsim.PageID(p))
		if id == lru.None {
			continue
		}
		if lru.TierOf(id) != m.TierOf(memsim.PageID(p)) {
			t.Fatalf("page %d on list %v but resident in %v tier",
				p, id, m.TierOf(memsim.PageID(p)))
		}
	}
}

func TestMigrateSkipsBusyCandidatesAndContinues(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{})
	inj := &scriptedInjector{failAll: true}
	m.SetFaultInjector(inj)

	before := m.Counters()
	n := a.migrate(8)
	if n != 0 {
		t.Fatalf("migrate under total outage promoted %d pages", n)
	}
	if m.Counters().Migrations != before.Migrations {
		t.Errorf("pages migrated despite outage")
	}
	fs := a.FaultStats()
	// Every candidate's demotion is retried (default 3 retries) and then
	// skipped — skip-and-continue, not abort-the-period.
	if fs.SkippedPages == 0 {
		t.Error("no skipped pages recorded")
	}
	if fs.SkippedPages < 2 {
		t.Errorf("skipped %d candidates; the loop should continue past the first failure", fs.SkippedPages)
	}
	if fs.Retries == 0 {
		t.Error("no retries recorded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("invariants after outage: %v", err)
	}
	checkListTierConsistency(t, a, m)

	// When the outage lifts, the same migration succeeds.
	inj.failAll = false
	if n := a.migrate(8); n == 0 {
		t.Error("migration did not recover after the outage lifted")
	}
	checkListTierConsistency(t, a, m)
}

func TestMigrateRetriesTransientFailure(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{})
	// Fail only the very first attempt (the first demotion); the retry
	// succeeds, so the full migration still completes.
	inj := &scriptedInjector{failAt: map[int]bool{0: true}}
	m.SetFaultInjector(inj)

	if n := a.migrate(4); n != 4 {
		t.Fatalf("migrate(4) promoted %d despite a retryable fault", n)
	}
	fs := a.FaultStats()
	if fs.Retries != 1 {
		t.Errorf("retries = %d, want 1", fs.Retries)
	}
	if fs.SkippedPages != 0 {
		t.Errorf("skipped = %d, want 0", fs.SkippedPages)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	checkListTierConsistency(t, a, m)
}

func TestMigrateRollsBackDemotionWhenPromotionFails(t *testing.T) {
	a, m := buildHotColdMachine(t, Config{})
	// Attempt 0: the demotion, succeeds. Attempts 1-4: the promotion
	// plus its three retries, all fail. Attempt 5: the rollback
	// re-promotion of the victim, succeeds.
	inj := &scriptedInjector{failAt: map[int]bool{1: true, 2: true, 3: true, 4: true}}
	m.SetFaultInjector(inj)

	fastUsedBefore := m.UsedPages(memsim.Fast)
	n := a.migrate(1)
	if n != 0 {
		t.Fatalf("promoted %d, want 0 (promotion was scripted to fail)", n)
	}
	fs := a.FaultStats()
	if fs.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", fs.Rollbacks)
	}
	if fs.SkippedPages != 1 {
		t.Errorf("skipped = %d, want 1", fs.SkippedPages)
	}
	// The rolled-back victim is resident in the fast tier again: the
	// failed transaction did not leak fast-tier capacity.
	if got := m.UsedPages(memsim.Fast); got != fastUsedBefore {
		t.Errorf("fast tier used %d pages, want %d after rollback", got, fastUsedBefore)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	checkListTierConsistency(t, a, m)
}

func TestMigrateStopsDemotingWhenSlowTierFull(t *testing.T) {
	// Both tiers full: demotion must fail with ErrTierFull, which ends
	// the period (nothing can be freed) instead of skipping candidate by
	// candidate.
	cfg := memsim.DefaultConfig(64*64*1024, 16*64*1024, 64*1024)
	cfg.CacheLines = 0
	cfg.Chain[memsim.Slow].CapacityPages = 48
	m := memsim.NewMachine(cfg)
	a := New(Config{SamplePeriod: 1, Epsilon: 0.0001})
	a.Attach(m)
	ps := uint64(m.PageSize())
	for p := uint64(0); p < 64; p++ {
		m.Access(p*ps, false)
	}
	for round := 0; round < 20; round++ {
		for p := uint64(16); p < 32; p++ {
			m.Access(p*ps, false)
		}
	}
	a.PumpSamples()

	if n := a.migrate(8); n != 0 {
		t.Fatalf("promoted %d with both tiers full", n)
	}
	fs := a.FaultStats()
	if fs.TierFullStops != 1 {
		t.Errorf("tier-full stops = %d, want 1", fs.TierFullStops)
	}
	if fs.SkippedPages != 0 {
		t.Errorf("tier-full must stop the period, not skip (%d skips)", fs.SkippedPages)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// driveTicks performs a round of accesses and one decision tick.
func driveTicks(a *ArtMem, m *memsim.Machine, ticks int) {
	ps := uint64(m.PageSize())
	for i := 0; i < ticks; i++ {
		for p := uint64(0); p < 32; p++ {
			m.Access(p*ps, false)
		}
		a.Tick(m.Now())
	}
}

func TestDegradedModeFallsBackAndReengages(t *testing.T) {
	inj := &scriptedInjector{}
	inj.dropSamples.Store(true)
	m := testMachine(16)
	m.SetFaultInjector(inj) // before Attach, so the sampler is wired too
	a := New(Config{SamplePeriod: 1})
	a.Attach(m)

	// Every window is empty while samples are dropped: after
	// degradeAfter (8) consecutive empty windows the agent must
	// fall back to the heuristic.
	driveTicks(a, m, degradeAfter)
	if !a.Degraded() {
		t.Fatalf("not degraded after %d empty windows (streak %d)", degradeAfter, a.noSampleStreak)
	}
	fs := a.FaultStats()
	if fs.DegradedEntries != 1 {
		t.Errorf("degraded entries = %d, want 1", fs.DegradedEntries)
	}
	// Degraded ticks still migrate via the heuristic: threshold pinned
	// to the capacity-derived value.
	driveTicks(a, m, 4)
	if got := a.Threshold(); got != a.capacityThreshold() {
		t.Errorf("degraded threshold = %d, want capacity-derived %d", got, a.capacityThreshold())
	}
	if a.FaultStats().DegradedTicks < 5 {
		t.Errorf("degraded ticks = %d, want >= 5", a.FaultStats().DegradedTicks)
	}

	// Samples return: RL re-engages on the first non-empty window.
	inj.dropSamples.Store(false)
	updatesBefore := a.qMig.Updates()
	driveTicks(a, m, 1)
	if a.Degraded() {
		t.Fatal("still degraded after samples returned")
	}
	if a.qMig.Updates() != updatesBefore {
		t.Error("re-engagement tick performed a Q update across the degraded gap")
	}
	// The next tick resumes normal Q-learning.
	driveTicks(a, m, 2)
	if a.qMig.Updates() == updatesBefore {
		t.Error("RL did not resume after re-engagement")
	}
}

// waitFor polls cond every millisecond until it holds, failing the
// test with what after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopWithin fails the test if Stop does not return in 10s.
func stopWithin(t *testing.T, l *controlLoop) {
	t.Helper()
	done := make(chan struct{})
	go func() { l.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked")
	}
}

// TestSystemHealthAndWatchdogBeats runs every runtime's threads for
// real: Start and Stop are idempotent, both workers beat, and a worker
// held off its lock is counted as stalled by the live watchdog.
func TestSystemHealthAndWatchdogBeats(t *testing.T) {
	for _, s := range lifecycleCases(t) {
		t.Run(s.name, func(t *testing.T) {
			s.watchdogInterval = 2 * time.Millisecond
			s.Start()
			s.Start()      // no-op
			defer s.Stop() // stops the threads if a check fails early
			waitFor(t, "worker heartbeats did not advance", func() bool {
				s.drive()
				h := s.Health()
				return h.SamplingBeats > 0 && h.MigrationBeats > 0
			})
			s.block(func() {
				// Health may need the held lock; read the counters directly.
				waitFor(t, "blocked workers not counted as stalled", func() bool {
					return s.sampleStalls.Value() > 0 && s.migrateStalls.Value() > 0
				})
			})
			stopWithin(t, s.controlLoop)
			s.Stop() // no-op
			if h := s.Health(); h.Panics != 0 {
				t.Errorf("panics = %d in a healthy run", h.Panics)
			}
		})
	}
}

// TestSystemRecoversFromPolicyPanics: an agent whose migration Q-table
// is gone models a crashing policy tick (the sampling pass never reads
// it; only the RL path panics). On every runtime the migration thread
// must recover and count it, sampling must keep beating, and Stop must
// return.
func TestSystemRecoversFromPolicyPanics(t *testing.T) {
	for _, s := range lifecycleCases(t) {
		t.Run(s.name, func(t *testing.T) {
			s.breakRL()
			s.Start()
			defer s.Stop() // stops the threads if a check fails early
			// Feed accesses so ticks take the RL path.
			waitFor(t, "no panic was recovered", func() bool {
				s.drive()
				return s.Health().Panics > 0
			})
			before := s.Health().SamplingBeats
			waitFor(t, "sampling thread died after the panic", func() bool {
				return s.Health().SamplingBeats > before
			})
			stopWithin(t, s.controlLoop)
		})
	}
}

func TestSystemChaosNeverDeadlocks(t *testing.T) {
	cfg := testSystemConfig()
	cfg.WatchdogInterval = 10 * time.Millisecond
	cfg.Faults = &faultinject.Config{
		Seed:               11,
		MigrationFailProb:  0.3,
		MigrationBurstMean: 4,
		SampleDropPeriodic: faultinject.Periodic{PeriodNs: 200_000, DurationNs: 100_000},
	}
	s := NewSystem(cfg)
	if s.Injector() == nil {
		t.Fatal("injector not installed from SystemConfig.Faults")
	}
	s.Start()
	stop := time.After(150 * time.Millisecond)
drive:
	for {
		select {
		case <-stop:
			break drive
		default:
			for p := uint64(0); p < 64; p++ {
				s.Access(p*64*1024, p%5 == 0)
			}
		}
	}
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked under fault injection")
	}
	if err := s.Machine().CheckInvariants(); err != nil {
		t.Errorf("invariants after chaos run: %v", err)
	}
	if h := s.Health(); h.Panics != 0 {
		t.Errorf("unexpected panics: %d", h.Panics)
	}
}
