package core

import (
	"fmt"
	"sync"

	"artmem/internal/lru"
	"artmem/internal/memsim"
	"artmem/internal/rl"
	"artmem/internal/telemetry"
)

// This file registers the System's pull-based metrics: gauges and
// counters whose values live inside the machine, the sampler, the LRU
// lists, and the Q-tables — all state guarded by the system lock. Each
// registered closure takes s.mu itself, so a /metrics scrape reads a
// consistent snapshot without the caller holding the lock.
//
// Locking rule: scrape handlers (ControlHandler, artmemd) must never
// call WritePrometheus or Snapshot while holding s.mu — the pull
// closures would deadlock re-acquiring it.

// lockedRegistrar registers pull metrics whose read closures run under
// a shared mutex — the System (or MultiSystem) lock guarding the state
// they read. Factored out of System so both runtimes register the
// machine-level series with byte-identical names and help strings.
type lockedRegistrar struct {
	mu  *sync.Mutex
	reg *telemetry.Registry
}

// gauge registers a pull gauge whose read runs under the lock.
func (l lockedRegistrar) gauge(name, help string, read func() float64, labels ...telemetry.Label) {
	l.reg.GaugeFunc(name, help, func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return read()
	}, labels...)
}

// counter registers a pull counter whose read runs under the lock.
func (l lockedRegistrar) counter(name, help string, read func() uint64, labels ...telemetry.Label) {
	l.reg.CounterFunc(name, help, func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(read())
	}, labels...)
}

// lockedGauge registers a pull gauge whose read runs under s.mu.
func (s *System) lockedGauge(name, help string, read func() float64, labels ...telemetry.Label) {
	lockedRegistrar{&s.mu, s.tel.Registry}.gauge(name, help, read, labels...)
}

// lockedCounter registers a pull counter whose read runs under s.mu.
func (s *System) lockedCounter(name, help string, read func() uint64, labels ...telemetry.Label) {
	lockedRegistrar{&s.mu, s.tel.Registry}.counter(name, help, read, labels...)
}

// registerMachineMetrics registers the machine-level series — tier
// occupancy, machine counters, virtual clock, latency histogram — onto
// l's registry. Shared by System and MultiSystem so single- and
// multi-tenant daemons expose the same machine surface. Occupancy is
// labelled fast/slow on a two-tier machine (artmon's classic panel
// reads those labels) and by chain tier name on longer chains; the
// access split stays fast (tier 0) against slow (every tier below).
func registerMachineMetrics(l lockedRegistrar, m *memsim.Machine) {
	fast, slow := telemetry.L("tier", "fast"), telemetry.L("tier", "slow")
	for t := 0; t < m.Tiers(); t++ {
		t := memsim.TierID(t)
		lbl := telemetry.L("tier", m.TierName(t))
		if m.Tiers() == 2 {
			lbl = [2]telemetry.Label{fast, slow}[t]
		}
		l.gauge("artmem_tier_pages",
			"Pages currently resident per tier.",
			func() float64 { return float64(m.UsedPages(t)) }, lbl)
		l.gauge("artmem_tier_capacity_pages",
			"Tier capacity in pages.",
			func() float64 { return float64(m.CapacityPages(t)) }, lbl)
	}
	l.counter("artmem_accesses_total",
		"Cache-missing accesses served per tier.",
		func() uint64 { return m.Counters().FastAccesses }, fast)
	l.counter("artmem_accesses_total", "",
		func() uint64 { return m.Counters().SlowAccesses }, slow)
	l.counter("artmem_cache_hits_total",
		"Accesses absorbed by the CPU cache model.",
		func() uint64 { return m.Counters().CacheHits })
	l.counter("artmem_migrations_total",
		"Pages moved between tiers.",
		func() uint64 { return m.Counters().Migrations })
	l.counter("artmem_promotions_total",
		"Slow-to-fast page moves.",
		func() uint64 { return m.Counters().Promotions })
	l.counter("artmem_demotions_total",
		"Fast-to-slow page moves.",
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

// registerChainMetrics registers the per-tier and per-boundary series
// of a chain machine on top of registerMachineMetrics: the tier index,
// shadow frames, and per-tier accesses, the per-boundary migration
// totals, and the shadow transaction counters. Tier labels carry the
// chain tier names (e.g. "DRAM", "CXL", "PM"); artmem_tier_index orders
// them for dashboards that cannot assume name semantics.
func registerChainMetrics(l lockedRegistrar, m *memsim.Machine) {
	for t := 0; t < m.Tiers(); t++ {
		t := memsim.TierID(t)
		lbl := telemetry.L("tier", m.TierName(t))
		l.reg.GaugeFunc("artmem_tier_index",
			"Position of the tier in the chain (0 = fastest); orders tier-labelled series.",
			func() float64 { return float64(t) }, lbl)
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
}

// registerMetrics instruments every layer of the stack onto the
// registry. Called once from NewSystem, after the agents attached. The
// per-agent series (pebs, lru, rl) are boundary 0's agent's; a chain
// adds the tier- and boundary-labelled series of registerChainMetrics.
func (s *System) registerMetrics() {
	pol := s.pol

	// --- memsim: tier occupancy, machine counters, virtual clock ---
	registerMachineMetrics(lockedRegistrar{&s.mu, s.tel.Registry}, s.m)
	if len(s.agents) > 1 {
		registerChainMetrics(lockedRegistrar{&s.mu, s.tel.Registry}, s.m)
	}

	// --- pebs: sampling substrate ---
	s.lockedCounter("artmem_pebs_samples_total",
		"Samples taken by the PEBS model (including ones later dropped).",
		func() uint64 { return pol.sampler.Stats().Taken })
	s.lockedCounter("artmem_pebs_samples_dropped_total",
		"Samples lost to ring-buffer overflow.",
		func() uint64 { return pol.sampler.Stats().Dropped })
	s.lockedCounter("artmem_pebs_samples_injected_drops_total",
		"Samples lost entirely to an installed fault injector.",
		func() uint64 { return pol.sampler.Stats().InjectedDrops })
	s.lockedGauge("artmem_pebs_pending_samples",
		"Undrained samples in the ring buffer.",
		func() float64 { return float64(pol.sampler.Stats().Pending) })
	s.lockedGauge("artmem_pebs_sampling_period",
		"Current sampling period (one sample per N cache-missing accesses).",
		func() float64 { return float64(pol.sampler.Stats().Period) })

	// --- lru: page-sorting list sizes ---
	for _, e := range []struct {
		id   lru.ListID
		name string
	}{
		{lru.FastActive, "fast_active"},
		{lru.FastInactive, "fast_inactive"},
		{lru.SlowActive, "slow_active"},
		{lru.SlowInactive, "slow_inactive"},
	} {
		e := e
		s.lockedGauge("artmem_lru_pages",
			"Pages on each recency list.",
			func() float64 { return float64(pol.lists.Len(e.id)) },
			telemetry.L("list", e.name))
	}

	// --- rl: the agent's learning activity ---
	// The table pointers are stable after Attach (NewSystem registers
	// afterwards), so the closures capture them directly.
	for _, e := range []struct {
		name  string
		table *rl.Table
	}{
		{"migration", pol.qMig},
		{"threshold", pol.qThr},
	} {
		e := e
		s.lockedCounter("artmem_rl_updates_total",
			"Temporal-difference updates applied per Q-table.",
			func() uint64 { return e.table.Updates() }, telemetry.L("table", e.name))
		s.lockedCounter("artmem_rl_explorations_total",
			"ε-greedy selections that took the exploration branch, per Q-table.",
			func() uint64 { return e.table.Explorations() }, telemetry.L("table", e.name))
	}
	s.lockedGauge("artmem_rl_epsilon",
		"The agent's exploration probability.",
		func() float64 { return pol.qMig.Config().Epsilon })
	s.lockedGauge("artmem_threshold",
		"Current hotness threshold (per-page access count).",
		func() float64 { return float64(pol.threshold) })
	s.lockedGauge("artmem_state",
		"The agent's last observed RL state (fast-ratio level, K+1 = no samples).",
		func() float64 { return float64(pol.state) })
	s.lockedGauge("artmem_degraded",
		"1 while the agent runs the heuristic fallback, else 0.",
		func() float64 {
			if pol.degraded {
				return 1
			}
			return 0
		})

	// --- faultinject: delivered chaos, by class ---
	if inj := s.injector; inj != nil {
		s.lockedCounter("artmem_injected_faults_total",
			"Faults delivered by the injector, by class.",
			func() uint64 { return inj.Stats().MigrationFailures },
			telemetry.L("class", "migration_failure"))
		s.lockedCounter("artmem_injected_faults_total", "",
			func() uint64 { return inj.Stats().DroppedSamples },
			telemetry.L("class", "sample_drop"))
		s.lockedCounter("artmem_injected_faults_total", "",
			func() uint64 { return inj.Stats().OverflowedSamples },
			telemetry.L("class", "ring_overflow"))
		s.lockedCounter("artmem_injected_faults_total", "",
			func() uint64 { return inj.Stats().DegradedMigrations },
			telemetry.L("class", "bandwidth_degraded"))
	}
}
