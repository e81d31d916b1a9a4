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

// TieredSystem is the N-tier online runtime: one two-tier ArtMem agent
// per tier boundary, driven by shared background threads, over a chain
// machine decomposed through a memsim.BoundaryHub. TieredSystem splits
// the tier chain and gives each agent one adjacent tier pair — boundary b's agent promotes into tier b and demotes into
// tier b+1, and a page descends or climbs the hierarchy through a
// relay of boundary decisions (the same decomposition Nomad and
// multi-tier TPP apply to N-node systems).
//
// The machine itself is single-threaded, so like System everything —
// access path and control passes — serializes behind one lock; the
// per-boundary structure buys decision decomposition (each agent sees
// a two-tier problem with its own Q-tables), not access parallelism.
type TieredSystem struct {
	*controlLoop

	mu     sync.Mutex
	m      *memsim.Machine
	agents []*ArtMem
	// agentTels holds each boundary agent's private telemetry set:
	// ArtMem's metric names are fixed, so per-boundary agents cannot
	// share one registry (the MultiSystem discipline).
	agentTels []*telemetry.Set

	budgets *tier.Budgets
}

// TieredSystemConfig parameterizes a TieredSystem.
type TieredSystemConfig struct {
	// Machine configures the simulated memory; Machine.Chain selects
	// the hierarchy (DefaultConfig's two-tier chain runs as one
	// boundary).
	Machine memsim.Config
	// Policy configures the per-boundary ArtMem agents. Boundary b's
	// agent gets Seed+b so exploration decorrelates across boundaries
	// while staying deterministic.
	Policy Config
	// SamplingInterval, MigrationInterval and WatchdogInterval follow
	// SystemConfig's semantics and defaults.
	SamplingInterval  time.Duration
	MigrationInterval time.Duration
	WatchdogInterval  time.Duration
	// BoundaryBudget caps migrations per boundary per decision period
	// (the per-boundary analogue of the paper's migration quota,
	// enforced below the agents so a misbehaving boundary cannot starve
	// the others' bandwidth). 0 leaves boundaries unmetered.
	BoundaryBudget int
	// Faults, when non-nil, installs a fault injector on the machine's
	// migration path before the agents attach.
	Faults *faultinject.Config
	// Telemetry, when non-nil, receives the runtime's aggregate metrics;
	// nil creates a fresh set. Per-agent metrics and decision traces
	// live on private per-boundary sets; GET /trace merges the traces.
	Telemetry *telemetry.Set
}

// NewTieredSystem builds the N-tier runtime. Call Start to launch the
// background threads and Stop to halt them.
func NewTieredSystem(cfg TieredSystemConfig) *TieredSystem {
	m := memsim.NewMachine(cfg.Machine)
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(*cfg.Faults)
		m.SetFaultInjector(inj)
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewSet()
	}
	hub := memsim.NewBoundaryHub(m)
	s := &TieredSystem{m: m}
	if cfg.BoundaryBudget > 0 {
		s.budgets = tier.NewBudgets(hub.NumBoundaries(), cfg.BoundaryBudget)
		s.budgets.Reset()
		hub.SetBudgets(s.budgets)
	}
	for b := 0; b < hub.NumBoundaries(); b++ {
		pcfg := cfg.Policy
		pcfg.Seed += uint64(b)
		a := New(pcfg)
		at := telemetry.NewSet()
		a.SetTelemetry(at)
		a.AttachEnv(hub.View(b)) // pre-Start wiring; no lock needed yet
		s.agents = append(s.agents, a)
		s.agentTels = append(s.agentTels, at)
	}
	s.controlLoop = newControlLoop(loopConfig{
		prefix:            "artmem_tiered_",
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
	reg := tel.Registry
	reg.GaugeFunc("artmem_tiered_boundaries",
		"Tier-boundary count of the chain machine (agents running).",
		func() float64 { return float64(len(s.agents)) })
	registerChainMetrics(lockedRegistrar{&s.mu, reg}, m)
	return s
}

// registerChainMetrics registers the per-tier and per-boundary series
// of a chain machine — the tier-labelled generalization of
// registerMachineMetrics' fast/slow pairs. Tier labels carry the chain
// tier names (e.g. "DRAM", "CXL", "PM"); artmem_tier_index orders them
// for dashboards that cannot assume name semantics.
func registerChainMetrics(l lockedRegistrar, m *memsim.Machine) {
	for t := 0; t < m.Tiers(); t++ {
		t := memsim.TierID(t)
		lbl := telemetry.L("tier", m.TierName(t))
		l.reg.GaugeFunc("artmem_tier_index",
			"Position of the tier in the chain (0 = fastest); orders tier-labelled series.",
			func() float64 { return float64(t) }, lbl)
		l.gauge("artmem_tier_pages",
			"Pages currently resident per tier.",
			func() float64 { return float64(m.UsedPages(t)) }, lbl)
		l.gauge("artmem_tier_capacity_pages",
			"Tier capacity in pages.",
			func() float64 { return float64(m.CapacityPages(t)) }, lbl)
		l.gauge("artmem_tier_shadow_pages",
			"Reclaimable shadow frames held per tier (non-exclusive mode).",
			func() float64 { return float64(m.ShadowPages(t)) }, lbl)
		l.counter("artmem_tier_accesses_total",
			"Cache-missing accesses served per tier.",
			func() uint64 { return m.TierAccesses(t) }, lbl)
	}
	for b := 0; b < m.NumBoundaries(); b++ {
		b := b
		lbl := telemetry.L("boundary",
			fmt.Sprintf("%s|%s", m.TierName(memsim.TierID(b)), m.TierName(memsim.TierID(b+1))))
		l.counter("artmem_boundary_promotions_total",
			"Promotions across each tier boundary (into the upper tier).",
			func() uint64 { return m.BoundaryStatsAt(b).Promotions }, lbl)
		l.counter("artmem_boundary_demotions_total",
			"Demotions across each tier boundary (into the lower tier).",
			func() uint64 { return m.BoundaryStatsAt(b).Demotions }, lbl)
		l.counter("artmem_boundary_shadow_discards_total",
			"Demotions completed as free discards onto a clean shadow copy.",
			func() uint64 { return m.BoundaryStatsAt(b).ShadowDiscards }, lbl)
	}
	l.counter("artmem_shadow_invalidates_total",
		"Shadow copies invalidated by writes to the promoted page.",
		func() uint64 { return m.Counters().ShadowInvalidates })
	l.counter("artmem_shadow_reclaims_total",
		"Shadow frames reclaimed under capacity pressure.",
		func() uint64 { return m.Counters().ShadowReclaims })
	l.counter("artmem_cache_hits_total",
		"Accesses absorbed by the CPU cache model.",
		func() uint64 { return m.Counters().CacheHits })
	l.counter("artmem_migrations_total",
		"Pages moved between tiers.",
		func() uint64 { return m.Counters().Migrations })
	l.counter("artmem_promotions_total",
		"Page moves toward a faster tier.",
		func() uint64 { return m.Counters().Promotions })
	l.counter("artmem_demotions_total",
		"Page moves toward a slower tier.",
		func() uint64 { return m.Counters().Demotions })
	l.counter("artmem_migrated_bytes_total",
		"Total bytes moved between tiers.",
		func() uint64 { return m.Counters().MigratedBytes })
	l.counter("artmem_migration_failures_total",
		"MovePage attempts that failed transiently (ErrMigrationBusy).",
		func() uint64 { return m.Counters().MigrationFailures })
	l.counter("artmem_numa_faults_total",
		"NUMA-hint faults taken.",
		func() uint64 { return m.Counters().Faults })
	l.gauge("artmem_virtual_clock_ns",
		"The machine's virtual clock.",
		func() float64 { return float64(m.Now()) })
	l.gauge("artmem_background_cpu_ns",
		"Virtual CPU time consumed by background work (sampling, RL, migration).",
		func() float64 { return m.BackgroundNs() })
	l.reg.HistogramFunc("artmem_access_latency_ns",
		"Distribution of per-access service latency (virtual ns).",
		func() telemetry.HistogramData {
			l.mu.Lock()
			defer l.mu.Unlock()
			return m.AccessLatencyData()
		})
}

// Machine returns the underlying chain machine. After Start, use it
// only through TieredSystem methods.
func (s *TieredSystem) Machine() *memsim.Machine { return s.m }

// NumBoundaries returns the number of boundary agents.
func (s *TieredSystem) NumBoundaries() int { return len(s.agents) }

// Agent returns boundary b's ArtMem agent. After Start, interrogate it
// only while the system is stopped.
func (s *TieredSystem) Agent(b int) *ArtMem { return s.agents[b] }

// Access performs one application access under the system lock.
func (s *TieredSystem) Access(addr uint64, write bool) {
	s.mu.Lock()
	s.m.Access(addr, write)
	s.mu.Unlock()
}

// AccessBatch applies a batch of accesses under one lock acquisition.
func (s *TieredSystem) AccessBatch(addrs []uint64, writes []bool) {
	s.mu.Lock()
	for i, a := range addrs {
		s.m.Access(a, writes[i])
	}
	s.mu.Unlock()
}

// Counters returns a snapshot of the machine's counters.
func (s *TieredSystem) Counters() memsim.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Counters()
}

// Now returns the machine's virtual time.
func (s *TieredSystem) Now() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Now()
}

// samplePass drains the shared PEBS stream into every boundary agent's
// recency structures, in ascending boundary order.
func (s *TieredSystem) samplePass() {
	for _, a := range s.agents {
		a.PumpSamples()
	}
}

// migratePass runs one decision period: refill the per-boundary
// migration budgets, then run every boundary agent's RL tick in
// ascending order — promotions into tier b happen before boundary b+1
// considers the pages left behind, so a hot page relays up the chain
// one boundary per period, deterministically.
func (s *TieredSystem) migratePass() {
	if s.budgets != nil {
		s.budgets.Reset()
	}
	now := s.m.Now()
	for _, a := range s.agents {
		a.Tick(now)
	}
}
