// Package damon implements a DAMON-style region-based access monitor.
//
// DAMON (Data Access MONitor) is the kernel subsystem the paper uses to
// visualize workload access footprints (Figure 10, "as measured by
// DAMON"), and region-based scanning is one of the three monitoring
// classes its Background section surveys (§2.1: DAMON and MTM "collect
// page access information by periodically scanning page tables, and
// control overhead and accuracy by splitting and merging sampling
// regions").
//
// The algorithm follows DAMON's design:
//
//   - the address space is partitioned into contiguous regions;
//   - each sampling step probes ONE page per region (spatial-locality
//     assumption: one page's accessed bit stands in for the region);
//   - each aggregation step turns per-region probe hits into an access
//     count, adaptively SPLITS regions (to find sub-region structure)
//     and MERGES adjacent regions with similar counts (to bound
//     overhead), keeping the region count within [MinRegions,
//     MaxRegions].
//
// Overhead is therefore proportional to the region count, not the
// footprint — the property that makes DAMON practical on huge address
// spaces, reproduced faithfully here.
package damon

import (
	"artmem/internal/dist"
	"artmem/internal/memsim"
)

// Region is one monitored address range with its access statistics.
type Region struct {
	// Start and End delimit the region in pages: [Start, End).
	Start, End memsim.PageID
	// NrAccesses is the number of sampling probes that found the region
	// accessed during the last aggregation window.
	NrAccesses int
	// Age counts aggregation windows since the region was created or its
	// access level changed materially (DAMON uses it for working-set
	// stability detection).
	Age int
}

// Pages returns the region's size in pages.
func (r Region) Pages() int { return int(r.End - r.Start) }

// Config parameterizes a Monitor.
type Config struct {
	// MinRegions and MaxRegions bound the region count (DAMON defaults:
	// 10 and 1000).
	MinRegions int
	MaxRegions int
	// SamplesPerAggregation is the number of sampling steps per
	// aggregation window (DAMON default: aggregation 100ms / sampling
	// 5ms = 20).
	SamplesPerAggregation int
	// MergeThreshold is the maximum |ΔNrAccesses| for two adjacent
	// regions to merge, as a fraction of SamplesPerAggregation (DAMON's
	// threshold; default 0.1).
	MergeThreshold float64
	// Seed drives probe-page selection.
	Seed uint64
}

// DefaultConfig returns DAMON's default parameters.
func DefaultConfig() Config {
	return Config{
		MinRegions:            10,
		MaxRegions:            1000,
		SamplesPerAggregation: 20,
		MergeThreshold:        0.1,
	}
}

// Monitor tracks access frequency per adaptive region over a machine.
type Monitor struct {
	cfg     Config
	m       *memsim.Machine
	rng     *dist.RNG
	regions []Region
	// probes holds the page currently being watched per region and
	// whether its bit was set when armed.
	probePage []memsim.PageID
	hits      []int
	samples   int
	aggs      uint64
}

// NewMonitor attaches a monitor to machine m covering its whole address
// space, initially split into MinRegions equal regions.
func NewMonitor(m *memsim.Machine, cfg Config) *Monitor {
	if cfg.MinRegions <= 0 {
		cfg.MinRegions = DefaultConfig().MinRegions
	}
	if cfg.MaxRegions < cfg.MinRegions {
		cfg.MaxRegions = cfg.MinRegions * 100
	}
	if cfg.SamplesPerAggregation <= 0 {
		cfg.SamplesPerAggregation = DefaultConfig().SamplesPerAggregation
	}
	if cfg.MergeThreshold <= 0 {
		cfg.MergeThreshold = DefaultConfig().MergeThreshold
	}
	mon := &Monitor{cfg: cfg, m: m, rng: dist.NewRNG(cfg.Seed ^ 0xda11011)}
	n := m.NumPages()
	regions := cfg.MinRegions
	if regions > n {
		regions = n
	}
	for i := 0; i < regions; i++ {
		start := memsim.PageID(i * n / regions)
		end := memsim.PageID((i + 1) * n / regions)
		if end > start {
			mon.regions = append(mon.regions, Region{Start: start, End: end})
		}
	}
	mon.probePage = make([]memsim.PageID, len(mon.regions))
	mon.hits = make([]int, len(mon.regions))
	mon.armProbes()
	return mon
}

// Regions returns a snapshot of the current regions.
func (mon *Monitor) Regions() []Region {
	out := make([]Region, len(mon.regions))
	copy(out, mon.regions)
	return out
}

// Aggregations returns how many aggregation windows have completed.
func (mon *Monitor) Aggregations() uint64 { return mon.aggs }

// armProbes picks a random page per region and clears its accessed bit
// so the next Sample observes fresh activity.
func (mon *Monitor) armProbes() {
	for i, r := range mon.regions {
		p := r.Start + memsim.PageID(mon.rng.Intn(r.Pages()))
		mon.probePage[i] = p
		mon.m.TestAndClearAccessed(p)
	}
}

// Sample performs one sampling step: check each region's probe page's
// accessed bit, then re-arm on a new page. Completing
// SamplesPerAggregation steps triggers an aggregation (split/merge).
// The per-step cost is proportional to the region count only.
func (mon *Monitor) Sample() {
	for i := range mon.regions {
		if mon.m.TestAndClearAccessed(mon.probePage[i]) {
			mon.hits[i]++
		}
	}
	mon.m.ChargeBackground(float64(len(mon.regions)) * 10)
	mon.samples++
	if mon.samples >= mon.cfg.SamplesPerAggregation {
		mon.aggregate()
		mon.samples = 0
	}
	mon.armProbes()
}

// aggregate publishes hit counts into the regions, merges similar
// neighbours, and splits regions to regain resolution.
func (mon *Monitor) aggregate() {
	for i := range mon.regions {
		old := mon.regions[i].NrAccesses
		mon.regions[i].NrAccesses = mon.hits[i]
		mon.hits[i] = 0
		diff := old - mon.regions[i].NrAccesses
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) <= mon.cfg.MergeThreshold*float64(mon.cfg.SamplesPerAggregation) {
			mon.regions[i].Age++
		} else {
			mon.regions[i].Age = 0
		}
	}
	mon.aggs++
	mon.merge()
	mon.split()
	mon.probePage = make([]memsim.PageID, len(mon.regions))
	mon.hits = make([]int, len(mon.regions))
}

// merge coalesces adjacent regions whose access counts differ by at
// most the merge threshold, as long as MinRegions remains satisfied.
func (mon *Monitor) merge() {
	thr := int(mon.cfg.MergeThreshold * float64(mon.cfg.SamplesPerAggregation))
	out := mon.regions[:0]
	for _, r := range mon.regions {
		if len(out) > 0 {
			last := &out[len(out)-1]
			diff := last.NrAccesses - r.NrAccesses
			if diff < 0 {
				diff = -diff
			}
			// Merging must not drop the (already-emitted) region count
			// below the minimum.
			if diff <= thr && len(out) > mon.cfg.MinRegions {
				// Weighted-average the counts into the merged region.
				total := last.Pages() + r.Pages()
				last.NrAccesses = (last.NrAccesses*last.Pages() + r.NrAccesses*r.Pages()) / total
				last.End = r.End
				if r.Age < last.Age {
					last.Age = r.Age
				}
				continue
			}
		}
		out = append(out, r)
	}
	mon.regions = out
}

// split halves regions (largest first implicitly — every region with
// more than one page splits) until the region count approaches
// MaxRegions, restoring resolution lost to merging. DAMON splits each
// region into two at a random point each aggregation, budget permitting.
func (mon *Monitor) split() {
	budget := mon.cfg.MaxRegions - len(mon.regions)
	if budget <= 0 {
		return
	}
	// DAMON splits every region into two (or three) while under budget;
	// we split into two at a random offset.
	var out []Region
	for _, r := range mon.regions {
		if budget > 0 && r.Pages() >= 2 {
			at := r.Start + 1 + memsim.PageID(mon.rng.Intn(r.Pages()-1))
			out = append(out,
				Region{Start: r.Start, End: at, NrAccesses: r.NrAccesses, Age: r.Age},
				Region{Start: at, End: r.End, NrAccesses: r.NrAccesses, Age: r.Age})
			budget--
		} else {
			out = append(out, r)
		}
	}
	mon.regions = out
}

// Snapshot returns per-page-bin access estimates by spreading each
// region's NrAccesses over its pages — the heatmap row data of Figure 10.
func (mon *Monitor) Snapshot(bins int) []float64 {
	out := make([]float64, bins)
	n := mon.m.NumPages()
	if n == 0 || bins == 0 {
		return out
	}
	for _, r := range mon.regions {
		perPage := float64(r.NrAccesses) / float64(r.Pages())
		for p := r.Start; p < r.End; p++ {
			out[int(p)*bins/n] += perPage
		}
	}
	return out
}
