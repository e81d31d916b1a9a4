// Package harness drives complete simulations: it sizes a machine from a
// workload's footprint and a DRAM:PM ratio, attaches a tiering policy,
// replays the workload's access trace, and fires the policy's periodic
// tick on the virtual clock. The Result captures everything the paper's
// evaluation reports: simulated execution time, DRAM access ratio,
// migration counts and volume, fault counts, background CPU overhead,
// and (optionally) migration/ratio time series for the
// behaviour-over-time figures (12, 17).
package harness

import (
	"fmt"
	"strconv"
	"strings"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/stats"
	"artmem/internal/tier"
	"artmem/internal/workloads"
)

// Ratio is a DRAM:PM capacity ratio, e.g. {1, 4} for 1:4. The paper
// splits each workload's footprint across the tiers in this proportion
// (§6.1: "we set the memory ratios to 2:1, 1:1, 1:2, 1:4, 1:8, 1:16").
type Ratio struct {
	Fast int
	Slow int
}

// String formats the ratio as "1:4".
func (r Ratio) String() string { return fmt.Sprintf("%d:%d", r.Fast, r.Slow) }

// FastBytes returns the fast-tier size for a footprint split at this
// ratio.
func (r Ratio) FastBytes(footprint int64) int64 {
	return footprint * int64(r.Fast) / int64(r.Fast+r.Slow)
}

// maxRatioShare bounds each side of a parsed ratio so footprint ×
// share cannot overflow int64.
const maxRatioShare = 1 << 16

// ParseRatio reads a "DRAM:PM" ratio flag, the one rule every command
// taking -ratio applies. The DRAM share must be at least 1, since the
// fast tier needs a page; a PM share of 0 runs DRAM only. Both shares
// are at most 65536, and nothing may trail the second number.
func ParseRatio(s string) (Ratio, error) {
	var r Ratio
	f, sl, ok := strings.Cut(s, ":")
	var err error
	if ok {
		r.Fast, err = strconv.Atoi(f)
		if err == nil {
			r.Slow, err = strconv.Atoi(sl)
		}
	}
	if !ok || err != nil || r.Fast < 1 || r.Slow < 0 || r.Fast > maxRatioShare || r.Slow > maxRatioShare {
		return Ratio{}, fmt.Errorf("bad -ratio %q: want DRAM:PM with 1 <= DRAM <= %d and 0 <= PM <= %d",
			s, maxRatioShare, maxRatioShare)
	}
	return r, nil
}

// PaperRatios are the six configurations of Figure 7.
var PaperRatios = []Ratio{{Fast: 2, Slow: 1}, {Fast: 1, Slow: 1}, {Fast: 1, Slow: 2}, {Fast: 1, Slow: 4}, {Fast: 1, Slow: 8}, {Fast: 1, Slow: 16}}

// Config parameterizes one simulation run.
type Config struct {
	// PageSize is the migration granularity; 0 uses the profile default
	// from the workload scale (the caller passes it explicitly).
	PageSize int64
	// Ratio splits the footprint between the tiers.
	Ratio Ratio
	// SlowLatencyNs, when non-zero, overrides the slow tier's latency
	// (the relative-latency sensitivity study, Figure 16b).
	SlowLatencyNs float64
	// SlowBWGBs, when non-zero, overrides the slow tier's bandwidth.
	SlowBWGBs float64
	// CacheLines overrides the CPU cache model size; 0 keeps the
	// default, negative disables the cache.
	CacheLines int
	// CollectSeries enables migration/ratio time-series capture.
	CollectSeries bool
	// Faults, when non-nil, installs a deterministic fault injector on
	// the machine before the policy attaches: chaos runs replay the same
	// workload under injected migration failures, sampling outages, and
	// bandwidth degradation (see internal/faultinject).
	Faults *faultinject.Config
	// CheckInvariants verifies the machine's page accounting after every
	// policy tick and at the end of the run; the first violation is
	// reported in Result.InvariantErr. O(pages) per tick — meant for
	// tests and chaos runs, not benchmarking.
	CheckInvariants bool
	// TierChain, when non-empty, selects an N-tier chain machine built
	// from the spec (internal/tier.ParseChain; e.g.
	// "DRAM:cap=12.5%/CXL:cap=25%/PM") and is consumed by RunTiered —
	// percentage capacities resolve against the workload footprint, and
	// Ratio is ignored. Run panics if it is set: chain replays need one
	// policy agent per boundary, which only RunTiered can construct.
	TierChain string
	// NonExclusive enables Nomad-style shadow copies on the chain: a
	// promotion leaves a reclaimable clean copy in the source tier, so
	// demoting an unwritten page back is a free discard.
	NonExclusive bool
}

// Result is the outcome of one run.
type Result struct {
	Workload string
	Policy   string
	Ratio    Ratio

	// ExecNs is the simulated application execution time — the paper's
	// headline metric.
	ExecNs int64
	// Accesses is the number of trace accesses replayed; Misses the
	// subset that reached memory (did not hit the CPU cache).
	Accesses int64
	Misses   uint64
	// DRAMRatio is the exact fast-tier share of memory accesses (the
	// "perf"-measured ratio of §3.2).
	DRAMRatio float64
	// Migration activity.
	Migrations    uint64
	Promotions    uint64
	Demotions     uint64
	MigratedBytes uint64
	// Faults counts NUMA-hint faults taken (fault-driven policies).
	Faults uint64
	// BackgroundNs is virtual CPU time spent off the critical path
	// (sampling, scanning, RL computation, overlapped migration copy).
	BackgroundNs float64
	// Ticks is the number of policy periods that fired.
	Ticks int
	// MigrationFailures counts transiently failed MovePage attempts
	// (non-zero only under fault injection).
	MigrationFailures uint64
	// FaultStats snapshots the injector's counters when Config.Faults
	// was set; zero otherwise.
	FaultStats faultinject.Stats
	// InvariantErr is the first page-accounting violation detected when
	// Config.CheckInvariants was set; nil when the invariants held.
	InvariantErr error

	// Tenants holds per-tenant results when the run was multi-tenant
	// (RunTenants); nil for single-tenant runs. ArbiterRebalances
	// counts dynamic quota rebalances the arbiter executed.
	Tenants           []TenantResult
	ArbiterRebalances uint64

	// Churn holds the lifecycle aggregates of a RunChurn run; nil
	// otherwise. Lives on Result so churn outcomes flow through the
	// sched run cache like every other cell output.
	Churn *ChurnStats

	// Stages holds the aggregated span-journal stage attribution when
	// the run drove the serving frontend with span recording (the
	// latency experiment); nil otherwise.
	Stages *StageStats

	// Tiers holds the per-tier and per-boundary outcome of an N-tier
	// chain run (RunTiered); nil for two-tier runs.
	Tiers *TierStats

	// MigrationSeries (pages migrated per tick) and RatioSeries
	// (windowed DRAM access ratio per tick), when collected.
	MigrationSeries stats.Series
	RatioSeries     stats.Series
}

// OverheadFraction returns background CPU time relative to execution
// time (the §6.4 overhead metric).
func (r Result) OverheadFraction() float64 {
	if r.ExecNs == 0 {
		return 0
	}
	return r.BackgroundNs / float64(r.ExecNs)
}

// Canonical returns a deterministic string encoding of the Config,
// suitable for hashing into a run-cache key (internal/sched). The
// Faults pointer is flattened to its pointee so two configs with
// distinct but equal injector configurations encode identically. The
// encoding deliberately goes through %+v of the whole struct: a field
// added to Config (or to faultinject.Config) changes every key, so the
// cache can never conflate runs across a schema change.
func (c Config) Canonical() string {
	faults := "nil"
	if c.Faults != nil {
		faults = fmt.Sprintf("%+v", *c.Faults)
	}
	flat := c
	flat.Faults = nil
	return fmt.Sprintf("%+v|faults=%s", flat, faults)
}

// Run replays workload w under policy pol and returns the Result. It
// closes the workload before returning.
//
// Purity contract: Run is a pure function of its inputs' identities.
// Workload constructors are deterministic in (spec name, Profile),
// policies are deterministic in their construction parameters
// (including pretrained Q-tables and seeds), and the simulation
// advances on a virtual clock with no wall-clock, goroutine-ordering,
// or map-iteration dependence — so one (workload identity, policy
// identity, Config) triple always yields the same Result, bit for bit.
// The cell scheduler relies on this contract twice over: memoized
// results may substitute for recomputation (internal/sched's cache),
// and any worker interleaving must produce identical tables. Code that
// breaks the contract (a policy reading wall time, a workload sharing
// mutable state across constructions) breaks caching, not just
// parallel runs; internal/exp's determinism test guards it.
func Run(w workloads.Workload, pol policies.Policy, cfg Config) Result {
	defer w.Close()
	if cfg.TierChain != "" {
		panic("harness: Config.TierChain requires RunTiered (one agent per boundary)")
	}
	m, inj, cfg := buildMachine(w.FootprintBytes(), cfg)
	pol.Attach(m)
	r := newReplayRun(m, inj, cfg, w.Name(), pol.Name())
	r.replay(w, pol.Interval(), pol.Tick)
	return r.finish()
}

// buildMachine sizes a machine from a footprint and the run Config,
// applying defaults, tier overrides, and the optional fault injector.
// It returns the normalized Config so callers share one view of the
// applied defaults.
func buildMachine(foot int64, cfg Config) (*memsim.Machine, *faultinject.Injector, Config) {
	mcfg, cfg := machineConfig(foot, cfg)
	m := memsim.NewMachine(mcfg)
	// The injector goes on before any policy attaches.
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(*cfg.Faults)
		m.SetFaultInjector(inj)
	}
	return m, inj, cfg
}

// machineConfig normalizes the run Config and derives the memsim
// configuration shared by the plain and chain builds. A TierChain spec
// is parsed and installed here; its percentage capacities resolve
// against the footprint inside memsim.NewMachine.
func machineConfig(foot int64, cfg Config) (memsim.Config, Config) {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 2 << 20
	}
	if cfg.Ratio.Fast == 0 && cfg.Ratio.Slow == 0 {
		cfg.Ratio = Ratio{1, 1}
	}
	fastBytes := cfg.Ratio.FastBytes(foot)
	mcfg := memsim.DefaultConfig(foot, fastBytes, cfg.PageSize)
	fast, slow := &mcfg.Chain[memsim.Fast], &mcfg.Chain[memsim.Slow]
	fast.CapacityPages = max(fast.CapacityPages, 1)
	if cfg.SlowLatencyNs > 0 {
		slow.LatencyNs = cfg.SlowLatencyNs
	}
	if cfg.SlowBWGBs > 0 {
		slow.ReadBWGBs = cfg.SlowBWGBs
		slow.WriteBWGBs = cfg.SlowBWGBs / 3
	}
	if cfg.CacheLines > 0 {
		mcfg.CacheLines = cfg.CacheLines
	} else if cfg.CacheLines < 0 {
		mcfg.CacheLines = 0
	}
	if cfg.TierChain != "" {
		ch, err := tier.ParseChain(cfg.TierChain)
		if err != nil {
			panic(fmt.Sprintf("harness: bad tier chain %q: %v", cfg.TierChain, err))
		}
		mcfg.Chain = ch
		mcfg.NonExclusive = cfg.NonExclusive
	}
	return mcfg, cfg
}
