package policies

import (
	"sort"

	"artmem/internal/ema"
	"artmem/internal/lru"
	"artmem/internal/memsim"
	"artmem/internal/pebs"
)

// MEMTIS (SOSP '23) is the strongest prior PEBS-based system and the
// paper's main quantitative foil. Its key design (Table 1): per-page
// access counts tracked as an exponential moving average in base-2 bins,
// with the hotness threshold *derived from the DRAM capacity* — the
// smallest count such that all pages at or above it fit in the fast
// tier. Everything at/above the threshold is classified hot and actively
// migrated up; cooling halves counts periodically.
//
// The capacity-derived threshold is exactly what the paper's motivation
// study attacks: on S1 it admits every page (15GB migrated where 1GB
// would do), and on S4 — where the equally-hot set exceeds DRAM — it
// thrashes (47GB migrated). The model reproduces both behaviours.

// MEMTIS samples with the same PEBS settings as ArtMem's agent (the
// paper's 200 and 2M, scaled to the simulator's shorter runs — see
// DESIGN.md).
const (
	memtisSamplePeriod   = 5
	memtisCoolingSamples = 500_000
)

// MEMTISConfig parameterizes the MEMTIS baseline.
type MEMTISConfig struct {
	// TickInterval is the migration daemon period; 0 uses
	// DefaultTickInterval.
	TickInterval int64
	// ThresholdOverride, when non-zero, pins the hotness threshold
	// instead of deriving it from DRAM capacity — the manual tuning
	// experiment of Figure 4.
	ThresholdOverride uint32
}

// MEMTIS is the MEMTIS baseline policy.
type MEMTIS struct {
	base
	cfg     MEMTISConfig
	sampler *pebs.Sampler
	hist    *ema.Histogram
}

// NewMEMTIS returns the MEMTIS baseline.
func NewMEMTIS(cfg MEMTISConfig) *MEMTIS {
	return &MEMTIS{cfg: cfg}
}

// Name implements Policy.
func (mt *MEMTIS) Name() string { return "MEMTIS" }

// Interval implements Policy.
func (mt *MEMTIS) Interval() int64 {
	if mt.cfg.TickInterval == 0 {
		return DefaultTickInterval
	}
	return mt.cfg.TickInterval
}

// Attach implements Policy.
func (mt *MEMTIS) Attach(m *memsim.Machine) { mt.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (mt *MEMTIS) AttachEnv(m memsim.Env) {
	mt.attach(m)
	mt.sampler = pebs.New(pebs.Config{
		Period:       memtisSamplePeriod,
		RingSize:     64 * 1024,
		SampleCostNs: 20,
		Charge:       m.ChargeBackground,
	})
	m.SetSampler(mt.sampler)
	mt.hist = ema.New(m.NumPages(), memtisCoolingSamples)
}

// Threshold returns the hotness threshold MEMTIS is currently using.
func (mt *MEMTIS) Threshold() uint32 {
	if mt.cfg.ThresholdOverride != 0 {
		return mt.cfg.ThresholdOverride
	}
	return mt.hist.CapacityThreshold(mt.m.CapacityPages(memsim.Fast))
}

// Tick implements Policy.
func (mt *MEMTIS) Tick(now int64) {
	m := mt.m
	// Drain PEBS into the histogram (the sampling thread's work).
	mt.sampler.Drain(func(s pebs.Sample) {
		mt.hist.Record(s.Page)
	})
	mt.age()
	thr := mt.Threshold()
	// Classify and migrate: every slow page at/above the threshold is
	// hot and belongs in DRAM.
	type scored struct {
		p memsim.PageID
		c uint32
	}
	var hot []scored
	for p := 0; p < m.NumPages(); p++ {
		pid := memsim.PageID(p)
		if !m.Allocated(pid) || m.TierOf(pid) != memsim.Slow {
			continue
		}
		if c := mt.hist.Count(pid); c >= thr {
			hot = append(hot, scored{pid, c})
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].c > hot[j].c })
	// A deliberately generous budget: MEMTIS migrates aggressively.
	quota := mt.migQuota * 8
	for _, s := range hot {
		if quota == 0 {
			break
		}
		if m.FreePages(memsim.Fast) == 0 {
			// Demote the coldest fast page by EMA count. MEMTIS demotes
			// below-threshold pages to make room for hot ones; if the
			// coldest resident is itself at/above the threshold the hot
			// set simply exceeds DRAM, and swapping equal-heat pages is
			// the thrashing behaviour the paper documents on S4 — so only
			// a strictly colder victim is evicted.
			victim, vc := mt.coldestFast()
			if victim == memsim.NoPage || vc >= s.c {
				break
			}
			if m.MovePage(victim, memsim.Slow) != nil {
				break
			}
			mt.lists.PushHead(lru.SlowInactive, victim)
		}
		if mt.promote(s.p) {
			quota--
		}
	}
}

// coldestFast returns the fast-tier page with the lowest EMA count,
// preferring the LRU-inactive tail among ties.
func (mt *MEMTIS) coldestFast() (memsim.PageID, uint32) {
	m := mt.m
	// The inactive tail is usually cold; verify by count and fall back
	// to a full scan when the tail looks hot.
	if p := mt.lists.Tail(lru.FastInactive); p != memsim.NoPage {
		if c := mt.hist.Count(p); c == 0 {
			return p, 0
		}
	}
	best := memsim.NoPage
	bestC := ^uint32(0)
	for p := 0; p < m.NumPages(); p++ {
		pid := memsim.PageID(p)
		if !m.Allocated(pid) || m.TierOf(pid) != memsim.Fast {
			continue
		}
		if c := mt.hist.Count(pid); c < bestC {
			best, bestC = pid, c
			if c == 0 {
				break
			}
		}
	}
	return best, bestC
}
