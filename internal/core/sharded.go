package core

import (
	"time"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/tenancy"
)

// ShardedSystem is the scale-out online runtime: one ArtMem agent per
// machine shard, driven by shared background threads, over a
// memsim.ShardedMachine whose access hot path is drivable from many
// goroutines concurrently. Where System serializes every access and
// control pass behind one global mutex, ShardedSystem's AccessBatch
// takes only the locks of the shards a batch actually touches, so
// frontend pumps on different shards proceed in parallel; the control
// threads visit shards one at a time, holding one shard lock each —
// an access batch is never blocked behind a whole-machine sampling or
// migration pass.
//
// Each agent sees a self-contained machine (its shard): local page
// space, local LRU lists, local PEBS ring, local virtual clock. The
// cross-shard coupling is capacity, not pages — per decision period
// the migration thread measures per-shard slow-access demand, splits
// the rebalance budget proportionally (tenancy.SplitBudget), and
// moves free fast-tier capacity toward demanded shards through the
// sharded machine's epoch-based TransferCapacity transactions.
type ShardedSystem struct {
	*controlLoop

	sm     *memsim.ShardedMachine
	agents []*ArtMem
	// agentTels holds each agent's private telemetry set: ArtMem's
	// metric names are fixed, so per-shard agents cannot share one
	// registry (the MultiSystem discipline).
	agentTels []*telemetry.Set

	rebalance int
	transfers *telemetry.Counter

	// lastSlow tracks per-shard slow-access counts at the previous
	// decision period; the delta is the demand signal the budget
	// splitter consumes. Touched only by the migration thread.
	lastSlow []uint64
}

// ShardedSystemConfig parameterizes a ShardedSystem.
type ShardedSystemConfig struct {
	// Machine configures the simulated tiered memory (pre-split; the
	// sharded machine derives the per-shard slices).
	Machine memsim.Config
	// Shards is the shard count; must be a positive power of two.
	// 0 uses 8.
	Shards int
	// Policy configures the per-shard ArtMem agents. Each shard's
	// agent gets Seed+shard so exploration decorrelates across shards
	// while staying deterministic.
	Policy Config
	// SamplingInterval, MigrationInterval and WatchdogInterval follow
	// SystemConfig's semantics and defaults.
	SamplingInterval  time.Duration
	MigrationInterval time.Duration
	WatchdogInterval  time.Duration
	// RebalancePages is the machine-wide per-period cross-shard
	// capacity rebalance budget in pages, split across shards by
	// demand each period. 0 uses 32; negative disables rebalancing.
	RebalancePages int
	// Faults, when non-nil, installs a fault injector on every shard's
	// migration path before the agents attach.
	Faults *faultinject.Config
	// Telemetry, when non-nil, receives the runtime's aggregate
	// metrics; nil creates a fresh set. Per-agent metrics live on
	// private per-shard sets (AgentTelemetry).
	Telemetry *telemetry.Set
}

// NewShardedSystem builds the sharded runtime. Call Start to launch
// the background threads and Stop to halt them.
func NewShardedSystem(cfg ShardedSystemConfig) *ShardedSystem {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.RebalancePages == 0 {
		cfg.RebalancePages = 32
	}
	sm := memsim.NewShardedMachine(cfg.Machine, cfg.Shards)
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(*cfg.Faults)
		sm.SetFaultInjector(inj)
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewSet()
	}
	s := &ShardedSystem{
		sm:        sm,
		rebalance: cfg.RebalancePages,
		lastSlow:  make([]uint64, cfg.Shards),
	}
	for i := 0; i < cfg.Shards; i++ {
		pcfg := cfg.Policy
		pcfg.Seed += uint64(i)
		a := New(pcfg)
		at := telemetry.NewSet()
		a.SetTelemetry(at)
		a.Attach(sm.Shard(i)) // pre-Start wiring; no shard lock needed yet
		s.agents = append(s.agents, a)
		s.agentTels = append(s.agentTels, at)
	}
	s.controlLoop = newControlLoop(loopConfig{
		prefix:            "artmem_sharded_",
		tel:               tel,
		injector:          inj,
		sample:            s.samplePass,
		migrate:           s.migratePass,
		degraded:          s.anyShardDegraded,
		samplingInterval:  cfg.SamplingInterval,
		migrationInterval: cfg.MigrationInterval,
		watchdogInterval:  cfg.WatchdogInterval,
	})
	reg := tel.Registry
	s.transfers = reg.Counter("artmem_sharded_capacity_transfers_total",
		"Committed cross-shard capacity-transfer transactions (rebalance pass).")
	reg.GaugeFunc("artmem_sharded_shards",
		"Shard count of the sharded machine.",
		func() float64 { return float64(cfg.Shards) })
	return s
}

// Machine returns the underlying sharded machine. After Start, use it
// only through its locked data-plane methods.
func (s *ShardedSystem) Machine() *memsim.ShardedMachine { return s.sm }

// NumShards returns the shard count.
func (s *ShardedSystem) NumShards() int { return len(s.agents) }

// Agent returns shard i's ArtMem agent. After Start, interrogate it
// only inside Machine().RunShard(i, ...).
func (s *ShardedSystem) Agent(i int) *ArtMem { return s.agents[i] }

// AgentTelemetry returns shard i's private telemetry set.
func (s *ShardedSystem) AgentTelemetry(i int) *telemetry.Set { return s.agentTels[i] }

// Access performs one application access (shard-locked).
func (s *ShardedSystem) Access(addr uint64, write bool) { s.sm.Access(addr, write) }

// AccessBatch applies a batch of accesses, locking only the shards
// the batch touches. Safe to call from many goroutines concurrently —
// this is the scale-out entry point the serving frontend's per-slot
// pump fan-out drives.
func (s *ShardedSystem) AccessBatch(addrs []uint64, writes []bool) {
	s.sm.AccessBatch(addrs, writes)
}

// AccessBatchParallel applies one batch across up to g goroutines
// (whole-shard ownership; deterministic aggregates for every g).
func (s *ShardedSystem) AccessBatchParallel(addrs []uint64, writes []bool, g int) {
	s.sm.AccessBatchParallel(addrs, writes, g)
}

// AllocRange first-touch allocates [addr, addr+size) by write-touching
// each page through the shard-locked access path; returns pages
// touched. The walk is capped at one full pass of the machine.
func (s *ShardedSystem) AllocRange(addr, size uint64) int {
	if size == 0 {
		return 0
	}
	ps := uint64(s.sm.PageSize())
	first := addr / ps
	n := (addr+size-1)/ps - first + 1
	if n > uint64(s.sm.NumPages()) {
		n = uint64(s.sm.NumPages())
	}
	for i := uint64(0); i < n; i++ {
		s.sm.Access((first+i)*ps, true)
	}
	return int(n)
}

// FreeRange unallocates every allocated page of [addr, addr+size)
// under the owning shards' locks; returns pages freed.
func (s *ShardedSystem) FreeRange(addr, size uint64) int {
	if size == 0 {
		return 0
	}
	ps := uint64(s.sm.PageSize())
	first := addr / ps
	n := (addr+size-1)/ps - first + 1
	if n > uint64(s.sm.NumPages()) {
		n = uint64(s.sm.NumPages())
	}
	freed := 0
	for i := uint64(0); i < n; i++ {
		p := s.sm.PageOf((first + i) * ps)
		s.sm.RunShardOf(p, func(m *memsim.Machine, lp memsim.PageID) {
			if m.Allocated(lp) && m.FreePage(lp) == nil {
				freed++
			}
		})
	}
	return freed
}

// Counters returns the machine-wide counter sums, quiescing all
// shards for a consistent snapshot.
func (s *ShardedSystem) Counters() memsim.Counters {
	var c memsim.Counters
	s.sm.Quiesce(func() { c = s.sm.Counters() })
	return c
}

// Now returns the machine's virtual time (max shard clock), quiesced.
func (s *ShardedSystem) Now() int64 {
	var now int64
	s.sm.Quiesce(func() { now = s.sm.Now() })
	return now
}

// anyShardDegraded reports whether any shard's agent runs the heuristic
// fallback, reading each under its shard lock.
func (s *ShardedSystem) anyShardDegraded() bool {
	for i, a := range s.agents {
		var d bool
		s.sm.RunShard(i, func(*memsim.Machine) { d = a.Degraded() })
		if d {
			return true
		}
	}
	return false
}

// samplePass drains every shard's PEBS ring into its agent's
// recency structures, one shard lock at a time.
func (s *ShardedSystem) samplePass() {
	for i, a := range s.agents {
		s.sm.RunShard(i, func(*memsim.Machine) { a.PumpSamples() })
	}
}

// migratePass runs one decision period: measure per-shard demand,
// split and install the rebalance budget, move free fast-tier
// capacity toward demanded shards, then run every agent's RL tick on
// its own shard.
func (s *ShardedSystem) migratePass() {
	n := len(s.agents)
	demand := make([]uint64, n)
	for i := range s.agents {
		s.sm.RunShard(i, func(m *memsim.Machine) {
			slow := m.Counters().SlowAccesses
			demand[i] = slow - s.lastSlow[i]
			s.lastSlow[i] = slow
		})
	}
	if s.rebalance > 0 {
		budgets := tenancy.SplitBudget(s.rebalance, demand)
		for i, b := range budgets {
			s.sm.SetShardBudget(i, b)
		}
		s.rebalanceCapacity(budgets)
	}
	for i, a := range s.agents {
		s.sm.RunShard(i, func(m *memsim.Machine) { a.Tick(m.Now()) })
	}
}

// rebalanceCapacity moves free fast-tier capacity toward shards with
// demand, bounded by each recipient's budget share. Donors are chosen
// richest-free-first and always keep one free page of slack so a
// donor is never stripped to the exact waterline its own agent is
// about to promote into. Every move is an epoch-bumping
// TransferCapacity transaction; failures (budget, stranded pages) are
// skipped, not retried — next period re-measures.
func (s *ShardedSystem) rebalanceCapacity(budgets []int) {
	n := len(s.agents)
	// Order recipients by descending demand share (budget), ties to
	// the lowest index, deterministically.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && budgets[order[j]] > budgets[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, to := range order {
		want := budgets[to]
		if want <= 0 {
			continue
		}
		var free int
		s.sm.RunShard(to, func(m *memsim.Machine) { free = m.FreePages(memsim.Fast) })
		if free > 0 {
			continue // has local headroom; let its agent use it first
		}
		for donor := 0; donor < n && want > 0; donor++ {
			if donor == to {
				continue
			}
			var spare int
			s.sm.RunShard(donor, func(m *memsim.Machine) { spare = m.FreePages(memsim.Fast) - 1 })
			if spare <= 0 {
				continue
			}
			k := want
			if spare < k {
				k = spare
			}
			if s.sm.TransferCapacity(donor, to, memsim.Fast, k) == nil {
				s.transfers.Add(uint64(k))
				want -= k
			}
		}
	}
}
