package core

import (
	"fmt"
	"sync"
	"time"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/tier"
)

// System is the online ArtMem runtime: it wraps a machine and runs the
// policy's sampling and migration work on the shared control loop's
// background goroutines — the userspace analogue of the paper's
// ksampled and kmigrated threads (§4.4). Application goroutines drive
// memory accesses through Access; the background threads operate
// asynchronously and never appear on the access path's critical section
// longer than one sampling drain.
//
// System runs one ArtMem agent per tier boundary. On the paper's
// two-tier machine that is one agent attached to the machine directly.
// On an N-tier chain (DESIGN.md §13) a memsim.BoundaryHub gives each
// agent one adjacent tier pair: boundary b's agent promotes into tier b
// and demotes into tier b+1, and a page climbs or descends the chain
// through a relay of boundary decisions — the decomposition Nomad and
// multi-tier TPP apply to N-node systems. The machine is
// single-threaded, so the access path and every control pass serialize
// behind one lock; the per-boundary agents buy decision decomposition
// (each sees a two-tier problem with its own Q-tables), not access
// parallelism.
//
// The paper's kernel prototype exposes the agent↔environment channel
// through cgroup pseudo-files (memory.hit_ratio_show and friends); here
// the channel is the ArtMem policy object itself, reachable via Policy
// (boundary 0's agent) and Agent.
//
// Resilience comes from the embedded controlLoop (loop.go), shared with
// MultiSystem: both worker threads recover from panics (a crashing
// policy tick must not take the daemon down), and a watchdog thread
// observes per-worker heartbeats so a stalled loop is detected and
// surfaced through Health rather than silently freezing the control
// loop. System contributes its two passes, its lock, and its agents'
// degraded flags.
type System struct {
	*controlLoop

	mu sync.Mutex
	m  *memsim.Machine
	// agents holds one agent per tier boundary, in boundary order; pol
	// is agents[0], the agent of the two-tier surface (/memory.*,
	// /qtable, checkpoints).
	agents []*ArtMem
	pol    *ArtMem
	// budgets meters migrations per boundary per decision period; nil
	// when SystemConfig.BoundaryBudget is 0.
	budgets *tier.Budgets
}

// SystemConfig parameterizes an online System.
type SystemConfig struct {
	// Machine configures the simulated tiered memory; Machine.Chain
	// selects the hierarchy, and the system runs one agent per boundary.
	Machine memsim.Config
	// Policy configures the ArtMem agents. Boundary b's agent gets
	// Seed+b, so exploration decorrelates across boundaries while
	// staying deterministic.
	Policy Config
	// SamplingInterval is the real-time period of the sampling thread
	// (the paper's sampling thread wakes every 2ms). 0 uses 2ms.
	SamplingInterval time.Duration
	// MigrationInterval is the real-time period of the migration thread.
	// 0 uses 20ms (scaled down from the paper's seconds-long interval so
	// examples adapt within seconds).
	MigrationInterval time.Duration
	// WatchdogInterval is the real-time period of the liveness watchdog.
	// A worker thread whose heartbeat does not advance across one
	// interval is counted as stalled. 0 uses 1s; negative disables the
	// watchdog.
	WatchdogInterval time.Duration
	// BoundaryBudget caps migrations per boundary per decision period
	// (the per-boundary analogue of the paper's migration quota,
	// enforced below the agents so a misbehaving boundary cannot starve
	// the others' bandwidth). 0 leaves boundaries unmetered.
	BoundaryBudget int
	// Faults, when non-nil, installs a fault injector on the machine's
	// migration path and the agents' sampling path before the policy
	// attaches — chaos testing for the online runtime.
	Faults *faultinject.Config
	// Telemetry, when non-nil, is the registry + decision trace the
	// system instruments itself onto; nil creates a fresh set. Two
	// Systems must not share one set (metric names would collide).
	// Boundary 0's agent records here; the agents of boundaries 1 and
	// up keep private sets, since ArtMem's metric names are fixed, and
	// GET /trace merges their traces.
	Telemetry *telemetry.Set
	// PageTraceSampleRate, when > 0, enables page-lifecycle tracing for
	// roughly one page in PageTraceSampleRate (rounded up to a power of
	// two; 1 traces every page), served over /pagetrace. 0 — the default
	// — keeps tracing off and every lifecycle hook a one-branch no-op.
	// Tracing needs a one-boundary machine: several agents would journal
	// the same pages' LRU and sampler events twice.
	PageTraceSampleRate int
}

// NewSystem builds an online system. Call Start to launch the
// background threads and Stop to halt them. It panics when page
// tracing is asked of a machine with more than one boundary.
func NewSystem(cfg SystemConfig) *System {
	m := memsim.NewMachine(cfg.Machine)
	nb := m.NumBoundaries()
	if cfg.PageTraceSampleRate > 0 && nb > 1 {
		panic(fmt.Sprintf("core: page tracing needs a one-boundary machine, not %d boundaries", nb))
	}
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(*cfg.Faults)
		m.SetFaultInjector(inj)
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = &telemetry.Set{
			Registry: telemetry.NewRegistry(),
			Trace:    telemetry.NewTrace(0),
		}
	}
	if cfg.PageTraceSampleRate > 0 && tel.PageTrace == nil {
		// Must exist before Attach: the policy wires the lifecycle hooks
		// into the machine, sampler, and LRU lists there.
		tel.PageTrace = telemetry.NewPageTrace(0, cfg.PageTraceSampleRate)
	}
	s := &System{m: m}
	if nb == 1 && cfg.BoundaryBudget == 0 {
		// The paper's two-tier machine: one agent, attached directly.
		pol := New(cfg.Policy)
		pol.SetTelemetry(tel)
		pol.Attach(m)
		s.agents = []*ArtMem{pol}
	} else {
		hub := memsim.NewBoundaryHub(m)
		if cfg.BoundaryBudget > 0 {
			s.budgets = tier.NewBudgets(nb, cfg.BoundaryBudget)
			s.budgets.Reset()
			hub.SetBudgets(s.budgets)
		}
		for b := 0; b < nb; b++ {
			pcfg := cfg.Policy
			pcfg.Seed += uint64(b)
			a := New(pcfg)
			if b == 0 {
				a.SetTelemetry(tel)
			} else {
				a.SetTelemetry(telemetry.NewSet())
			}
			a.AttachEnv(hub.View(b))
			s.agents = append(s.agents, a)
		}
	}
	s.pol = s.agents[0]
	s.controlLoop = newControlLoop(loopConfig{
		tel:               tel,
		injector:          inj,
		lock:              &s.mu,
		sample:            s.samplePass,
		migrate:           s.migratePass,
		degraded:          func() bool { return anyDegraded(s.agents) },
		samplingInterval:  cfg.SamplingInterval,
		migrationInterval: cfg.MigrationInterval,
		watchdogInterval:  cfg.WatchdogInterval,
	})
	s.registerMetrics()
	return s
}

// samplePass drains the PEBS stream into every agent's recency
// structures, in ascending boundary order.
func (s *System) samplePass() {
	for _, a := range s.agents {
		a.PumpSamples()
	}
}

// migratePass runs one decision period: refill the per-boundary
// migration budgets, then run every agent's RL tick in ascending
// boundary order — promotions into tier b happen before boundary b+1
// considers the pages left behind, so a hot page relays up the chain
// one boundary per period, deterministically.
func (s *System) migratePass() {
	if s.budgets != nil {
		s.budgets.Reset()
	}
	now := s.m.Now()
	for _, a := range s.agents {
		a.Tick(now)
	}
}

// Machine returns the underlying machine. Callers must not use it
// concurrently with a started System except through System methods.
func (s *System) Machine() *memsim.Machine { return s.m }

// Policy returns boundary 0's ArtMem agent (the paper's userspace-RL
// view; on a two-tier machine, the only agent).
func (s *System) Policy() *ArtMem { return s.pol }

// NumBoundaries returns the number of tier boundaries, one agent each.
func (s *System) NumBoundaries() int { return len(s.agents) }

// Agent returns boundary b's ArtMem agent. After Start, interrogate it
// only while the system is stopped.
func (s *System) Agent(b int) *ArtMem { return s.agents[b] }

// Access performs one application memory access.
func (s *System) Access(addr uint64, write bool) {
	s.mu.Lock()
	s.m.Access(addr, write)
	s.mu.Unlock()
}

// AccessBatch performs a batch of application accesses under one lock
// acquisition. addrs and writes must have equal length.
func (s *System) AccessBatch(addrs []uint64, writes []bool) {
	s.mu.Lock()
	for i, a := range addrs {
		s.m.Access(a, writes[i])
	}
	s.mu.Unlock()
}

// Counters returns a snapshot of the machine's counters — the
// equivalent of reading the paper's memory.hit_ratio_show interface.
func (s *System) Counters() memsim.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Counters()
}

// Now returns the machine's virtual time.
func (s *System) Now() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Now()
}

// SaveQTablesFile checkpoints the agent's Q-tables to path under the
// system lock, safe to call while the system is running. The paper
// primes its agent from previously saved tables (§6.2); the daemon uses
// this for periodic checkpointing so a restart resumes learning. The
// checkpoint holds one agent's tables, so a system with more than one
// boundary returns an error.
func (s *System) SaveQTablesFile(path string) error {
	if err := s.oneAgent(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pol.SaveQTablesFile(path)
}

// RestoreQTablesFile loads a Q-table checkpoint under the system lock.
// On any error the live tables are left untouched. Like
// SaveQTablesFile it needs a one-boundary system.
func (s *System) RestoreQTablesFile(path string) error {
	if err := s.oneAgent(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pol.RestoreQTablesFile(path)
}

// oneAgent refuses Q-table checkpoints on a chain: the snapshot format
// holds exactly one agent's two tables.
func (s *System) oneAgent() error {
	if len(s.agents) > 1 {
		return fmt.Errorf("core: Q-table checkpoints hold one agent; this system runs %d boundary agents",
			len(s.agents))
	}
	return nil
}
