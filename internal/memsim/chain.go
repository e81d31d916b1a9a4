package memsim

import "artmem/internal/tier"

// Tier-chain introspection: per-tier and per-boundary accessors that
// generalize the fast/slow counter pairs. The default two-tier machine
// reports tiers "fast" and "slow" with one boundary, so telemetry, the
// harness and the boundary-decomposed RL runtime see every machine
// through the same accessors.

// Tiers returns the number of memory tiers, len(Config.Chain).
func (m *Machine) Tiers() int { return m.nt }

// NumBoundaries returns the number of adjacent tier pairs.
func (m *Machine) NumBoundaries() int { return m.nt - 1 }

// TierName returns tier t's chain name ("fast"/"slow" under
// DefaultConfig).
func (m *Machine) TierName(t TierID) string { return m.specs[t].Name }

// TierSpecAt returns tier t's resolved descriptor (capacity in pages).
func (m *Machine) TierSpecAt(t TierID) tier.Desc { return m.specs[t] }

// TierAccesses returns the number of cache-missing accesses served by
// tier t, derived from the latency-class counters (so it costs nothing
// on the access path).
func (m *Machine) TierAccesses(t TierID) uint64 {
	return m.latCounts[latFastRead+2*int(t)] + m.latCounts[latFastWrite+2*int(t)]
}

// ShadowPages returns the number of shadow frames held in tier t
// (always 0 without Config.NonExclusive).
func (m *Machine) ShadowPages(t TierID) int {
	if m.sh == nil {
		return 0
	}
	return m.sh.Count(int(t))
}

// BoundaryStats is migration activity across one tier boundary
// (boundary b = the edge between tiers b and b+1).
type BoundaryStats struct {
	// Promotions and Demotions count moves crossing the boundary,
	// attributed to the destination side (promotion into tier b,
	// demotion into tier b+1). ShadowDiscards is the subset of
	// Demotions that completed as free discards onto a clean shadow.
	Promotions     uint64
	Demotions      uint64
	ShadowDiscards uint64
}

// BoundaryStatsAt returns cumulative migration counters for boundary b.
func (m *Machine) BoundaryStatsAt(b int) BoundaryStats {
	return BoundaryStats{
		Promotions:     m.bndProm[b],
		Demotions:      m.bndDem[b],
		ShadowDiscards: m.bndDisc[b],
	}
}
