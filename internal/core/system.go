package core

import (
	"sync"
	"time"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
)

// System is the online ArtMem runtime: it wraps a machine and runs the
// policy's sampling and migration work on the shared control loop's
// background goroutines — the userspace analogue of the paper's
// ksampled and kmigrated threads (§4.4). Application goroutines drive
// memory accesses through Access; the background threads operate
// asynchronously and never appear on the access path's critical section
// longer than one sampling drain.
//
// The paper's kernel prototype exposes the agent↔environment channel
// through cgroup pseudo-files (memory.hit_ratio_show and friends); here
// the channel is the ArtMem policy object itself, reachable via Policy.
//
// Resilience comes from the embedded controlLoop (loop.go), shared with
// the other three runtimes: both worker threads recover from panics (a
// crashing policy tick must not take the daemon down), and a watchdog
// thread observes per-worker heartbeats so a stalled loop is detected
// and surfaced through Health rather than silently freezing the control
// loop. System contributes its two passes, its lock, and its agent's
// degraded flag.
type System struct {
	*controlLoop

	mu  sync.Mutex
	m   *memsim.Machine
	pol *ArtMem
}

// SystemConfig parameterizes an online System.
type SystemConfig struct {
	// Machine configures the simulated tiered memory.
	Machine memsim.Config
	// Policy configures the ArtMem agent.
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
	// Faults, when non-nil, installs a fault injector on the machine's
	// migration path and the agent's sampling path before the policy
	// attaches — chaos testing for the online runtime.
	Faults *faultinject.Config
	// Telemetry, when non-nil, is the registry + decision trace the
	// system instruments itself onto; nil creates a fresh set. Two
	// Systems must not share one set (metric names would collide).
	Telemetry *telemetry.Set
	// PageTraceSampleRate, when > 0, enables page-lifecycle tracing for
	// roughly one page in PageTraceSampleRate (rounded up to a power of
	// two; 1 traces every page), served over /pagetrace. 0 — the default
	// — keeps tracing off and every lifecycle hook a one-branch no-op.
	PageTraceSampleRate int
}

// NewSystem builds an online system. Call Start to launch the
// background threads and Stop to halt them.
func NewSystem(cfg SystemConfig) *System {
	m := memsim.NewMachine(cfg.Machine)
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
	pol := New(cfg.Policy)
	pol.SetTelemetry(tel)
	pol.Attach(m)
	s := &System{m: m, pol: pol}
	s.controlLoop = newControlLoop(loopConfig{
		prefix:            "artmem_",
		tel:               tel,
		injector:          inj,
		lock:              &s.mu,
		sample:            pol.PumpSamples,
		migrate:           func() { pol.Tick(m.Now()) },
		degraded:          func() bool { return pol.degraded },
		samplingInterval:  cfg.SamplingInterval,
		migrationInterval: cfg.MigrationInterval,
		watchdogInterval:  cfg.WatchdogInterval,
	})
	s.registerMetrics()
	return s
}

// Machine returns the underlying machine. Callers must not use it
// concurrently with a started System except through System methods.
func (s *System) Machine() *memsim.Machine { return s.m }

// Policy returns the ArtMem agent (the paper's userspace-RL view).
func (s *System) Policy() *ArtMem { return s.pol }

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
// this for periodic checkpointing so a restart resumes learning.
func (s *System) SaveQTablesFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pol.SaveQTablesFile(path)
}

// RestoreQTablesFile loads a Q-table checkpoint under the system lock.
// On any error the live tables are left untouched.
func (s *System) RestoreQTablesFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pol.RestoreQTablesFile(path)
}
