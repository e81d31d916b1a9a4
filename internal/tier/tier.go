// Package tier models an ordered chain of memory tiers — the
// generalization of the paper's two-tier (DRAM + Optane PM) evaluation
// machine to arbitrary DRAM / CXL / PM / NVMe hierarchies.
//
// A Chain is an ordered list of tier descriptors, fastest first. Each
// descriptor carries the tier's access latency, read/write bandwidth
// (the same cost-model inputs as the paper's Table 2) and a capacity,
// expressed either as an absolute page count or as a percentage of the
// machine footprint. The last tier may be unbounded ("the rest"), like
// the default machine's slow tier.
//
// The package is pure model + bookkeeping: it has no dependency on the
// simulator. memsim builds every machine from a resolved Config.Chain,
// whose default is the paper's two-tier DRAM/PM pair; ShadowTable
// implements the page bookkeeping for non-exclusive (Nomad-style)
// migration, and Budgets meters migrations per tier boundary. See
// DESIGN.md §13.
package tier

import (
	"fmt"
	"strings"
)

// MaxTiers bounds chain length. TierIDs are uint8 in the simulator and
// latency-class tables are sized per tier, so keep this comfortably small.
const MaxTiers = 8

// Desc describes one tier in a chain.
type Desc struct {
	// Name identifies the tier ("DRAM", "CXL", ...). Names must be
	// unique within a chain; they become telemetry label values.
	Name string
	// LatencyNs is the idle load-to-use latency in nanoseconds.
	// Latencies must increase strictly down the chain.
	LatencyNs float64
	// ReadBWGBs and WriteBWGBs are sequential bandwidths in GB/s. They
	// bound demand accesses and migration transfer speed; zero is
	// rejected by Validate.
	ReadBWGBs  float64
	WriteBWGBs float64
	// Capacity is one of:
	//   - CapacityPages > 0: absolute page count;
	//   - CapacityPct   > 0: percentage of the machine footprint;
	//   - both zero: unbounded (sized to the footprint) — legal only
	//     for the last tier of a chain.
	CapacityPages int
	CapacityPct   float64
}

// Unbounded reports whether the descriptor has no explicit capacity.
func (d *Desc) Unbounded() bool { return d.CapacityPages == 0 && d.CapacityPct == 0 }

// Chain is an ordered tier hierarchy, fastest tier first.
type Chain []Desc

// Validate checks the chain for structural soundness: 2..MaxTiers
// tiers, unique well-formed names, strictly increasing latency down the
// chain, positive bandwidths, and a positive capacity on every tier
// except (optionally) the last.
func (c Chain) Validate() error {
	if len(c) < 2 {
		return fmt.Errorf("tier: chain needs at least 2 tiers, got %d", len(c))
	}
	if len(c) > MaxTiers {
		return fmt.Errorf("tier: chain has %d tiers, max %d", len(c), MaxTiers)
	}
	seen := make(map[string]bool, len(c))
	for i := range c {
		d := &c[i]
		if err := checkName(d.Name); err != nil {
			return fmt.Errorf("tier %d: %w", i, err)
		}
		if seen[d.Name] {
			return fmt.Errorf("tier: duplicate tier name %q", d.Name)
		}
		seen[d.Name] = true
		if d.LatencyNs <= 0 {
			return fmt.Errorf("tier %s: latency must be positive, got %g", d.Name, d.LatencyNs)
		}
		if i > 0 && d.LatencyNs <= c[i-1].LatencyNs {
			return fmt.Errorf("tier: latency must increase strictly down the chain: %s (%gns) after %s (%gns)",
				d.Name, d.LatencyNs, c[i-1].Name, c[i-1].LatencyNs)
		}
		if d.ReadBWGBs <= 0 || d.WriteBWGBs <= 0 {
			return fmt.Errorf("tier %s: bandwidths must be positive, got read=%g write=%g",
				d.Name, d.ReadBWGBs, d.WriteBWGBs)
		}
		if d.CapacityPages < 0 || d.CapacityPct < 0 {
			return fmt.Errorf("tier %s: negative capacity", d.Name)
		}
		if d.CapacityPages > 0 && d.CapacityPct > 0 {
			return fmt.Errorf("tier %s: capacity given both as pages and percent", d.Name)
		}
		if d.CapacityPct > 100 {
			return fmt.Errorf("tier %s: capacity percent must be in (0,100], got %g", d.Name, d.CapacityPct)
		}
		if d.Unbounded() && i != len(c)-1 {
			return fmt.Errorf("tier %s: zero capacity is only legal for the last tier", d.Name)
		}
	}
	return nil
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("tier: empty tier name")
	}
	for i, r := range name {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			i > 0 && (r >= '0' && r <= '9' || r == '_' || r == '-')
		if !ok {
			return fmt.Errorf("tier: bad tier name %q (want [A-Za-z][A-Za-z0-9_-]*)", name)
		}
	}
	return nil
}

// Resolve fixes every capacity against a concrete footprint of
// totalPages pages: the returned chain carries page counts only.
// Percent capacities round down but never below one page, and an
// unbounded last tier gets totalPages, so the footprint always fits.
// The chain must Validate.
func (c Chain) Resolve(totalPages int) (Chain, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if totalPages <= 0 {
		return nil, fmt.Errorf("tier: Resolve needs a positive footprint, got %d pages", totalPages)
	}
	out := make(Chain, len(c))
	for i, d := range c {
		if d.CapacityPct > 0 {
			d.CapacityPages = max(int(d.CapacityPct/100*float64(totalPages)), 1)
			d.CapacityPct = 0
		} else if d.CapacityPages == 0 {
			d.CapacityPages = totalPages
		}
		out[i] = d
	}
	return out, nil
}

// Preset returns the built-in descriptor for a well-known tier
// technology, capacity left unset. Matching is case-insensitive.
//
// DRAM and PM carry the paper's Table 2 numbers (PM writes derated 3x,
// matching memsim.DefaultConfig); CXL sits between them per typical
// CXL-attached DRAM measurements; NVMe models a cold flash tier.
func Preset(name string) (Desc, bool) {
	switch strings.ToUpper(name) {
	case "DRAM":
		return Desc{Name: "DRAM", LatencyNs: 92, ReadBWGBs: 81, WriteBWGBs: 81}, true
	case "CXL":
		return Desc{Name: "CXL", LatencyNs: 180, ReadBWGBs: 45, WriteBWGBs: 45}, true
	case "PM":
		// WriteBWGBs matches memsim.DefaultConfig's derated figure
		// exactly (26/3 in untyped-constant arithmetic = 8), so a
		// DRAM/PM chain reproduces the default machine's cost model
		// byte for byte.
		return Desc{Name: "PM", LatencyNs: 323, ReadBWGBs: 26, WriteBWGBs: 8}, true
	case "NVME":
		return Desc{Name: "NVMe", LatencyNs: 25000, ReadBWGBs: 6, WriteBWGBs: 3}, true
	}
	return Desc{}, false
}
