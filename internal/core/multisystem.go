package core

import (
	"sync"
	"time"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/tenancy"
)

// MultiSystem is the multi-tenant online runtime: one machine, one
// tenancy control plane, and one ArtMem agent per tenant, all driven by
// the same shared background threads a single-tenant System runs. The
// kernel analogue is the paper's per-memcg deployment — each memory
// cgroup gets its own hit-ratio state and Q-tables while ksampled and
// kmigrated remain global kernel threads; here each tenant's agent
// attaches to its tenancy.TenantView and the shared migration thread
// opens one arbiter control period, then ticks every agent under it,
// so all promotion traffic competes for the same per-period admission
// budgets.
//
// Each agent carries a private telemetry.Set (ArtMem metric names are
// fixed, so agents cannot share one registry); the MultiSystem's own
// shared set carries the machine-level series plus tenant-labelled
// aggregates and is what ControlHandler serves.
type MultiSystem struct {
	*controlLoop

	mu    sync.Mutex
	m     *memsim.Machine
	plane *tenancy.Plane
	// agents is indexed by plane slot; nil for empty or draining
	// slots. Tenants cycle through slots via RegisterTenant /
	// DeregisterTenant.
	agents []*ArtMem
	// policies remembers each occupied slot's policy config so reports
	// and restarts know what is running there.
	policies []Config
	// checkpoints preserves a gracefully departed tenant's learned
	// Q-tables, keyed by tenant name, so a re-registration warm-starts
	// instead of relearning from scratch. Crashes do not checkpoint —
	// a crashed tenant's in-memory state is lost, as in production.
	checkpoints map[string]agentCheckpoint
}

// TenantConfig describes one tenant of a MultiSystem.
type TenantConfig struct {
	// Name labels the tenant in telemetry and the /tenants endpoint;
	// "" uses "tenant<i>".
	Name string
	// Weight is the tenant's fast-tier and migration-bandwidth share;
	// 0 means 1.
	Weight int
	// Class is the tenant's SLO class: latency-SLO tenants preempt
	// batch promotion bandwidth under admission control.
	Class tenancy.SLOClass
	// Policy configures the tenant's ArtMem agent.
	Policy Config
}

// MultiSystemConfig parameterizes a multi-tenant runtime.
type MultiSystemConfig struct {
	// Machine configures the shared simulated tiered memory.
	Machine memsim.Config
	// Tenants configures the initial tenants. May be empty when
	// Capacity > 0 (tenants then arrive via RegisterTenant).
	Tenants []TenantConfig
	// Capacity fixes the tenant slot count — the maximum number of
	// concurrent tenants over the system's lifetime. 0 uses
	// len(Tenants) (a fixed-membership system).
	Capacity int
	// Arbiter configures fast-tier partitioning and migration admission
	// control (zero value: arbitration off, no admission control).
	Arbiter tenancy.ArbiterConfig
	// SamplingInterval, MigrationInterval, and WatchdogInterval mirror
	// SystemConfig: 0 uses 2ms, 20ms, and 1s respectively; a negative
	// WatchdogInterval disables the watchdog.
	SamplingInterval  time.Duration
	MigrationInterval time.Duration
	WatchdogInterval  time.Duration
	// Faults, when non-nil, installs a shared fault injector — injected
	// infrastructure chaos hits every tenant.
	Faults *faultinject.Config
	// Telemetry, when non-nil, is the shared registry + trace the
	// runtime instruments itself onto; nil creates a fresh set. The
	// per-tenant agents always get private sets.
	Telemetry *telemetry.Set
}

// NewMultiSystem builds a multi-tenant online system. Call Start to
// launch the background threads and Stop to halt them.
func NewMultiSystem(cfg MultiSystemConfig) *MultiSystem {
	if len(cfg.Tenants) == 0 && cfg.Capacity == 0 {
		panic("core: MultiSystemConfig needs at least one tenant or a capacity")
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = len(cfg.Tenants)
	}
	if len(cfg.Tenants) > cfg.Capacity {
		panic("core: more initial tenants than capacity")
	}
	m := memsim.NewMachine(cfg.Machine)
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(*cfg.Faults)
		m.SetFaultInjector(inj)
	}
	plane := tenancy.NewDynamicPlane(m, cfg.Capacity, cfg.Arbiter)
	tel := cfg.Telemetry
	if tel == nil {
		tel = &telemetry.Set{
			Registry: telemetry.NewRegistry(),
			Trace:    telemetry.NewTrace(0),
		}
	}
	s := &MultiSystem{
		m:           m,
		plane:       plane,
		agents:      make([]*ArtMem, cfg.Capacity),
		policies:    make([]Config, cfg.Capacity),
		checkpoints: make(map[string]agentCheckpoint),
	}
	for _, t := range cfg.Tenants {
		if _, err := s.registerLocked(t); err != nil {
			panic("core: initial tenant registration failed: " + err.Error())
		}
	}
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
	s.registerMultiMetrics()
	return s
}

// registerMultiMetrics instruments the shared registry: the machine
// series every daemon exposes (byte-identical names to System's), plus
// tenant-labelled aggregates and the arbiter's and lifecycle's
// activity. Per-tenant labelled series are registered for the
// construction-time tenants only — the registry's label sets are fixed
// at registration, so tenants that churn through recycled slots later
// are observable via /tenants (which reports live membership), not via
// new metric series. A recycled slot's series go quiet (nil-agent
// guard) rather than mislabel another tenant's numbers.
func (s *MultiSystem) registerMultiMetrics() {
	l := lockedRegistrar{&s.mu, s.tel.Registry}
	registerMachineMetrics(l, s.m)

	arb := s.plane.Arbiter()
	l.counter("artmem_arbiter_rebalances_total",
		"Dynamic fast-tier quota rebalances the arbiter executed.",
		func() uint64 { return arb.Rebalances() })
	l.gauge("artmem_tenants_active",
		"Tenant slots currently in the active lifecycle state.",
		func() float64 { return float64(s.plane.ActiveTenants()) })
	l.counter("artmem_tenant_registrations_total",
		"Tenants admitted over the system's lifetime.",
		func() uint64 { return s.plane.Stats().Registrations })
	l.counter("artmem_tenant_deregistrations_total",
		"Tenant reclamations committed (graceful and crash).",
		func() uint64 { return s.plane.Stats().Deregistrations })
	l.counter("artmem_tenant_crashes_total",
		"Tenants force-deregistered by a crash.",
		func() uint64 { return s.plane.Stats().Crashes })
	l.counter("artmem_tenant_reclaim_rollbacks_total",
		"Reclamation transactions interrupted and rolled back.",
		func() uint64 { return s.plane.Stats().ReclaimRollbacks })
	l.counter("artmem_tenant_registrations_throttled_total",
		"Registrations deferred by arrival backpressure.",
		func() uint64 { return s.plane.Stats().RegistrationsThrottled })
	initial := s.plane.ActiveTenants()
	for i := 0; i < initial; i++ {
		i := i
		id := memsim.TenantID(i)
		origName := s.plane.Tenant(i).Name
		name := telemetry.L("tenant", origName)
		mine := func() bool { return s.plane.Tenant(i).Name == origName }
		l.gauge("artmem_tenant_fast_pages",
			"Fast-tier pages resident per tenant.",
			func() float64 {
				if !mine() {
					return 0
				}
				return float64(s.m.TenantUsedPages(id, memsim.Fast))
			}, name)
		l.gauge("artmem_tenant_slow_pages",
			"Slow-tier pages resident per tenant.",
			func() float64 {
				if !mine() {
					return 0
				}
				return float64(s.m.TenantUsedPages(id, memsim.Slow))
			}, name)
		l.gauge("artmem_tenant_quota_pages",
			"Fast-tier quota per tenant (0 = unlimited, arbiter off).",
			func() float64 {
				if !mine() {
					return 0
				}
				return float64(arb.Quota(i))
			}, name)
		l.counter("artmem_tenant_accesses_total",
			"Cache-missing accesses per tenant per tier.",
			func() uint64 { return s.m.TenantCounters(id).FastAccesses },
			name, telemetry.L("tier", "fast"))
		l.counter("artmem_tenant_accesses_total", "",
			func() uint64 { return s.m.TenantCounters(id).SlowAccesses },
			name, telemetry.L("tier", "slow"))
		l.gauge("artmem_tenant_hit_ratio",
			"Cumulative fast-tier access share per tenant.",
			func() float64 { return s.m.TenantCounters(id).DRAMRatio() }, name)
		l.counter("artmem_tenant_promotions_total",
			"Slow-to-fast moves of the tenant's pages.",
			func() uint64 { return s.m.TenantCounters(id).Promotions }, name)
		l.counter("artmem_tenant_demotions_total",
			"Fast-to-slow moves of the tenant's pages.",
			func() uint64 { return s.m.TenantCounters(id).Demotions }, name)
		l.counter("artmem_tenant_admission_denials_total",
			"Promotions denied by the arbiter's admission control.",
			func() uint64 { return arb.Denials(i) }, name)
		l.gauge("artmem_tenant_degraded",
			"1 while the tenant's agent runs the heuristic fallback, else 0.",
			func() float64 {
				if a := s.agents[i]; a != nil && mine() && a.degraded {
					return 1
				}
				return 0
			}, name)
	}
}

// Machine returns the underlying machine. Callers must not use it
// concurrently with a started MultiSystem except through MultiSystem
// methods.
func (s *MultiSystem) Machine() *memsim.Machine { return s.m }

// Plane returns the tenancy control plane.
func (s *MultiSystem) Plane() *tenancy.Plane { return s.plane }

// NumTenants returns the number of tenants.
func (s *MultiSystem) NumTenants() int { return len(s.agents) }

// Agent returns tenant i's ArtMem agent.
func (s *MultiSystem) Agent(i int) *ArtMem { return s.agents[i] }

// Access performs one application memory access on behalf of tenant i:
// the machine charges the access (and any first-touch allocation) to
// that tenant.
func (s *MultiSystem) Access(tenant int, addr uint64, write bool) {
	s.mu.Lock()
	s.m.SetCurrentTenant(memsim.TenantID(tenant))
	s.m.Access(addr, write)
	s.mu.Unlock()
}

// AccessBatch performs a batch of tenant i's accesses under one lock
// acquisition. addrs and writes must have equal length.
func (s *MultiSystem) AccessBatch(tenant int, addrs []uint64, writes []bool) {
	s.mu.Lock()
	s.m.SetCurrentTenant(memsim.TenantID(tenant))
	for i, a := range addrs {
		s.m.Access(a, writes[i])
	}
	s.mu.Unlock()
}

// Counters returns a snapshot of the machine-wide counters.
func (s *MultiSystem) Counters() memsim.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Counters()
}

// TenantCounters returns tenant i's counter slice.
func (s *MultiSystem) TenantCounters(i int) memsim.TenantCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.TenantCounters(memsim.TenantID(i))
}

// Now returns the machine's virtual time.
func (s *MultiSystem) Now() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Now()
}

// TenantStatus is one tenant's row of a TenantsReport — the JSON shape
// served per tenant on /tenants (schema-pinned by test).
type TenantStatus struct {
	Name             string  `json:"name"`
	Slot             int     `json:"slot"`
	State            string  `json:"state"`
	SLOClass         string  `json:"slo_class"`
	Weight           int     `json:"weight"`
	QuotaPages       int     `json:"quota_pages"`
	FastPages        int     `json:"fast_pages"`
	SlowPages        int     `json:"slow_pages"`
	FastAccesses     uint64  `json:"fast_accesses"`
	SlowAccesses     uint64  `json:"slow_accesses"`
	HitRatio         float64 `json:"hit_ratio"`
	Promotions       uint64  `json:"promotions"`
	Demotions        uint64  `json:"demotions"`
	AdmissionDenials uint64  `json:"admission_denials"`
	Preemptions      uint64  `json:"preemptions"`
	Decisions        uint64  `json:"decisions"`
	Threshold        uint32  `json:"threshold"`
	Degraded         bool    `json:"degraded"`
}

// TenantsReport is the full /tenants payload: arbiter posture, the
// plane's lifecycle totals, plus one TenantStatus per occupied slot
// (active and draining), in slot order.
type TenantsReport struct {
	ArbiterMode       string         `json:"arbiter_mode"`
	AdmissionControl  bool           `json:"admission_control"`
	FastCapacityPages int            `json:"fast_capacity_pages"`
	Capacity          int            `json:"capacity"`
	ActiveTenants     int            `json:"active_tenants"`
	Rebalances        uint64         `json:"rebalances"`
	Registrations     uint64         `json:"registrations"`
	Deregistrations   uint64         `json:"deregistrations"`
	Crashes           uint64         `json:"crashes"`
	ReclaimRollbacks  uint64         `json:"reclaim_rollbacks"`
	Throttled         uint64         `json:"registrations_throttled"`
	Tenants           []TenantStatus `json:"tenants"`
}

// TenantsReport snapshots the control plane: per-tenant occupancy,
// quota, traffic split, migration activity, and agent state. Safe to
// call concurrently with a running MultiSystem.
func (s *MultiSystem) TenantsReport() TenantsReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	arb := s.plane.Arbiter()
	st := s.plane.Stats()
	rep := TenantsReport{
		ArbiterMode:       arb.Mode().String(),
		AdmissionControl:  arb.AdmissionEnabled(),
		FastCapacityPages: s.m.CapacityPages(memsim.Fast),
		Capacity:          s.plane.Capacity(),
		ActiveTenants:     s.plane.ActiveTenants(),
		Rebalances:        arb.Rebalances(),
		Registrations:     st.Registrations,
		Deregistrations:   st.Deregistrations,
		Crashes:           st.Crashes,
		ReclaimRollbacks:  st.ReclaimRollbacks,
		Throttled:         st.RegistrationsThrottled,
	}
	for i, a := range s.agents {
		if s.plane.State(i) == tenancy.StateEmpty {
			continue
		}
		id := memsim.TenantID(i)
		tc := s.m.TenantCounters(id)
		t := s.plane.Tenant(i)
		row := TenantStatus{
			Name:             t.Name,
			Slot:             i,
			State:            s.plane.State(i).String(),
			SLOClass:         t.Class.String(),
			Weight:           t.Weight,
			QuotaPages:       arb.Quota(i),
			FastPages:        s.m.TenantUsedPages(id, memsim.Fast),
			SlowPages:        s.m.TenantUsedPages(id, memsim.Slow),
			FastAccesses:     tc.FastAccesses,
			SlowAccesses:     tc.SlowAccesses,
			HitRatio:         tc.DRAMRatio(),
			Promotions:       tc.Promotions,
			Demotions:        tc.Demotions,
			AdmissionDenials: arb.Denials(i),
			Preemptions:      arb.Preemptions(i),
		}
		if a != nil {
			row.Decisions = a.Decisions()
			row.Threshold = a.threshold
			row.Degraded = a.degraded
		}
		rep.Tenants = append(rep.Tenants, row)
	}
	return rep
}

// samplePass drains every tenant agent's PEBS buffer — the single
// shared ksampled serving all memcgs.
func (s *MultiSystem) samplePass() {
	for _, a := range s.agents {
		if a != nil {
			a.PumpSamples()
		}
	}
}

// migratePass opens one arbiter control period (budget refill, possible
// dynamic rebalance) and then runs every tenant agent's RL decision
// period under it — the shared kmigrated.
func (s *MultiSystem) migratePass() {
	s.plane.BeginPeriod()
	// Interrupted departures retry once per period so a draining slot
	// eventually empties.
	s.plane.RetryDrains()
	now := s.m.Now()
	for _, a := range s.agents {
		if a != nil {
			a.Tick(now)
		}
	}
}

// anyDegraded reports whether any non-nil agent runs the heuristic
// fallback.
func anyDegraded(agents []*ArtMem) bool {
	for _, a := range agents {
		if a != nil && a.degraded {
			return true
		}
	}
	return false
}
