// Package memsim implements the tiered-memory machine model that replaces
// the paper's DRAM+Optane hardware and Linux-kernel substrate.
//
// A Machine simulates a two-tier memory system (a fast tier and a slow
// capacity tier) at page granularity, with:
//
//   - a virtual clock advanced by a per-access cost model built from the
//     paper's measured tier latencies and bandwidths (Table 2);
//   - first-touch page allocation that fills the fast tier before
//     overflowing to the slow tier (matching the paper's evaluation setup);
//   - a reuse-distance CPU cache model, so that cache-hitting accesses are
//     invisible to hardware sampling (required for ArtMem's "no sampled
//     events" RL state);
//   - page-table accessed bits with scan-and-clear semantics (the signal
//     consumed by Nimble and Multi-clock);
//   - NUMA-hint-fault arming (the signal consumed by AutoNUMA, TPP,
//     AutoTiering and Tiering-0.8);
//   - a sampler hook on the cache-miss path (the signal consumed by PEBS
//     based systems: MEMTIS and ArtMem);
//   - a migration engine that charges transfer time to tier bandwidth and
//     a configurable interference fraction to application time.
//
// Machine is single-threaded. ShardedMachine (sharded.go, DESIGN.md §12)
// splits one logical machine by page-hash into N shards — each a full
// Machine with its own page state, capacity split, cache slice, hooks
// and virtual clock — behind the same Env surface. It is single-threaded
// too, and pages and capacity never leave their shard. One shard
// delegates verbatim, so N=1 reproduces Machine byte for byte.
//
// The simulation is deterministic: identical configurations and access
// streams produce identical virtual timings and counters.
package memsim

import (
	"fmt"

	"artmem/internal/tier"
)

// TierID identifies one of the two memory tiers.
type TierID uint8

// The two tiers of the machine. Fast is the DRAM-class tier, Slow the
// PM/CXL-class capacity tier.
const (
	Fast TierID = 0
	Slow TierID = 1
	// NumTiers is the number of memory tiers in the machine.
	NumTiers = 2
)

// String returns "fast" or "slow".
func (t TierID) String() string {
	if t == Fast {
		return "fast"
	}
	return "slow"
}

// PageID indexes a page within the machine's simulated address space.
type PageID uint32

// NoPage is a sentinel PageID used by list structures.
const NoPage PageID = ^PageID(0)

// TierSpec describes the performance and capacity of one memory tier.
type TierSpec struct {
	Name string
	// LatencyNs is the idle load-to-use latency of the tier in
	// nanoseconds.
	LatencyNs float64
	// ReadBWGBs and WriteBWGBs are the tier's sequential read and write
	// bandwidth in GB/s. They bound both demand accesses and migration
	// transfer speed.
	ReadBWGBs  float64
	WriteBWGBs float64
	// CapacityPages is the number of pages the tier can hold.
	CapacityPages int
}

// The paper's measured tier characteristics (Table 2). Optane PM write
// bandwidth is well below read bandwidth (an empirically documented
// idiosyncrasy); the paper reports a single 26 GB/s figure, which we use
// for reads, with writes derated by the commonly measured ~3x factor.
const (
	// FastLatencyNs is the fast-tier (DRAM) load latency from Table 2.
	FastLatencyNs = 92
	// SlowLatencyNs is the slow-tier (Optane PM) load latency from Table 2.
	SlowLatencyNs = 323
	// FastBWGBs is the fast-tier bandwidth from Table 2.
	FastBWGBs = 81
	// SlowBWGBs is the slow-tier bandwidth from Table 2.
	SlowBWGBs = 26
)

// Config parameterizes a Machine.
type Config struct {
	// PageSize is the migration granularity in bytes. The paper uses 2MB
	// huge pages; scaled-down experiments shrink the page proportionally
	// with the footprint so page *counts* match the paper (see DESIGN.md).
	PageSize int64
	// FootprintBytes is the size of the simulated application address
	// space. It is rounded up to a whole number of pages.
	FootprintBytes int64
	// Fast and Slow describe the two tiers. Fast.CapacityPages bounds the
	// fast tier; Slow.CapacityPages of 0 means "unbounded" (sized to fit
	// the whole footprint).
	Fast TierSpec
	Slow TierSpec
	// CacheLines is the number of 64-byte lines in the reuse-distance CPU
	// cache model. 0 disables the cache model (every access misses).
	CacheLines int
	// CacheHitNs is the cost of a cache hit.
	CacheHitNs float64
	// MigrationInterference is the fraction of a migration's transfer
	// time charged to application virtual time (the rest overlaps with
	// execution but is tracked as background cost). The kernel migrates
	// pages on background threads, but migrations still contend with the
	// application for memory bandwidth.
	MigrationInterference float64
	// MigrationFixedNs is the per-page fixed migration overhead (page
	// table manipulation, TLB shootdown).
	MigrationFixedNs float64
	// FaultCostNs is charged to application time when an armed
	// NUMA-hint fault fires (minor fault handling on the critical path).
	FaultCostNs float64
	// Chain, when non-nil, replaces the Fast/Slow pair with an ordered
	// N-tier hierarchy (DRAM/CXL/PM/NVMe chains; see internal/tier and
	// DESIGN.md §13). Tier 0 is the fastest; the legacy Fast/Slow specs
	// are ignored. A nil Chain keeps the seed two-tier machine, byte
	// for byte.
	Chain tier.Chain
	// NonExclusive enables Nomad-style non-exclusive migration: a
	// promotion leaves a reclaimable shadow copy in the source tier, a
	// demotion back onto a clean shadow is a free discard (no
	// transfer), and a write invalidates the shadow. Shadow frames
	// count against their tier's capacity but are reclaimed on demand
	// by allocations and migrations that need the room.
	NonExclusive bool
}

// DefaultConfig returns a Config with the paper's Table 2 tier
// characteristics and sensible model defaults, for a machine with the
// given footprint, fast-tier size, and page size (all in bytes).
func DefaultConfig(footprint, fastBytes, pageSize int64) Config {
	if pageSize <= 0 {
		pageSize = 2 << 20
	}
	fastPages := int(fastBytes / pageSize)
	return Config{
		PageSize:       pageSize,
		FootprintBytes: footprint,
		Fast: TierSpec{
			Name:          "DRAM",
			LatencyNs:     FastLatencyNs,
			ReadBWGBs:     FastBWGBs,
			WriteBWGBs:    FastBWGBs,
			CapacityPages: fastPages,
		},
		Slow: TierSpec{
			Name:       "PM",
			LatencyNs:  SlowLatencyNs,
			ReadBWGBs:  SlowBWGBs,
			WriteBWGBs: SlowBWGBs / 3,
			// CapacityPages 0: sized to fit the footprint.
		},
		CacheLines:            1 << 18, // models a 16MB last-level cache
		CacheHitNs:            2,
		MigrationInterference: 0.3,
		MigrationFixedNs:      1500,
		FaultCostNs:           300,
	}
}

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("memsim: PageSize must be positive, got %d", c.PageSize)
	}
	if c.FootprintBytes <= 0 {
		return fmt.Errorf("memsim: FootprintBytes must be positive, got %d", c.FootprintBytes)
	}
	if c.MigrationInterference < 0 || c.MigrationInterference > 1 {
		return fmt.Errorf("memsim: MigrationInterference must be in [0,1], got %g",
			c.MigrationInterference)
	}
	if c.Chain != nil {
		// Chain machines take their tier model from the chain; the
		// legacy Fast/Slow specs are ignored entirely.
		return c.Chain.Validate()
	}
	if c.Fast.CapacityPages < 0 || c.Slow.CapacityPages < 0 {
		return fmt.Errorf("memsim: negative tier capacity")
	}
	if c.Fast.LatencyNs <= 0 || c.Slow.LatencyNs <= 0 {
		return fmt.Errorf("memsim: tier latencies must be positive")
	}
	if c.Fast.ReadBWGBs <= 0 || c.Slow.ReadBWGBs <= 0 ||
		c.Fast.WriteBWGBs <= 0 || c.Slow.WriteBWGBs <= 0 {
		return fmt.Errorf("memsim: tier bandwidths must be positive")
	}
	return nil
}

// NumPagesFor returns the number of pages needed to back the footprint.
func (c *Config) NumPagesFor() int {
	return int((c.FootprintBytes + c.PageSize - 1) / c.PageSize)
}
