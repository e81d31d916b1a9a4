// Package exp defines one reproducible experiment per table and figure
// of the paper's evaluation (the per-experiment index in DESIGN.md §3).
// Each experiment declares its workload × policy × configuration sweep
// as a grid of independent cells (grid.go), runs the grid through the
// internal/sched scheduler — which parallelizes and memoizes cells
// without changing a byte of output (DESIGN.md §7) — and renders the
// same rows/series the paper reports, as text tables, by indexing the
// returned results. cmd/artbench and the top-level benchmarks are thin
// wrappers around this package.
package exp

import (
	"fmt"
	"sync"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/rl"
	"artmem/internal/sched"
	"artmem/internal/textplot"
	"artmem/internal/workloads"
)

// Options control an experiment run.
type Options struct {
	// Profile sets the workload scale.
	Profile workloads.Profile
	// Quick trims sweeps (fewer ratios/workloads) for smoke runs.
	Quick bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Sched executes the experiment's cell grids (worker pool + run
	// cache). Nil falls back to a process-wide serial scheduler with an
	// in-memory cache; cmd/artbench installs a parallel one.
	Sched *sched.Scheduler
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Profile: workloads.DefaultProfile()}
}

// QuickOptions returns a fast smoke-run configuration.
func QuickOptions() Options {
	return Options{Profile: workloads.QuickProfile(), Quick: true}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the registry key, e.g. "fig7".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports, for comparison.
	Paper string
	// Run executes the experiment and returns its result tables.
	Run func(o Options) []textplot.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Table2(), Fig1(), Fig2(), Fig3(), Fig4(),
		Fig7(), Fig8(), Fig9(), Fig10(), Fig11(),
		Fig12(), Fig13(), Fig14(), Fig15(),
		Fig16a(), Fig16b(), Fig16c(), Fig17(), Overheads(),
		LiblinearSampling(), PageSize(), Fairness(), Churn(),
		ServeBench(), Latency(), Tiers(),
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// ---- pretrained agent ------------------------------------------------------

// trainKey identifies a pretraining cache entry.
type trainKey struct {
	div      int64
	accesses int64
	seed     uint64
	alg      rl.Algorithm
	workload string
}

var (
	trainMu    sync.Mutex
	trainCache = map[trainKey]*trainedTables{}
)

// trainedTables is one memoized pretraining run; done is closed once
// mig/thr are valid, so concurrent requests for the same key coalesce
// onto a single training (parallel grid cells frequently race here)
// instead of training redundantly.
type trainedTables struct {
	done     chan struct{}
	mig, thr *rl.Table
}

// TrainTables pretrains ArtMem Q-tables by running the named workload
// at two memory ratios (the paper primes its agent on Liblinear, §6.2).
// Results are memoized per profile; concurrent callers with the same
// key share one training run. The returned tables are shared — callers
// must pass them on as pretraining input (core.Config copies them) and
// never mutate them.
func TrainTables(o Options, workload string, alg rl.Algorithm) (mig, thr *rl.Table) {
	key := trainKey{o.Profile.Div, o.Profile.AppAccesses, o.Profile.Seed, alg, workload}
	trainMu.Lock()
	if t, ok := trainCache[key]; ok {
		trainMu.Unlock()
		<-t.done
		return t.mig, t.thr
	}
	t := &trainedTables{done: make(chan struct{})}
	trainCache[key] = t
	trainMu.Unlock()
	defer close(t.done)

	spec, err := workloads.ByName(workload)
	if err != nil {
		panic(err)
	}
	o.logf("pretraining ArtMem on %s", workload)
	var prevMig, prevThr *rl.Table
	for round, ratio := range []harness.Ratio{
		{Fast: 1, Slow: 1}, {Fast: 1, Slow: 2}, {Fast: 1, Slow: 8}, {Fast: 1, Slow: 16},
	} {
		pol := core.New(core.Config{
			Algorithm:     alg,
			Seed:          o.Profile.Seed + uint64(round),
			PretrainedMig: prevMig,
			PretrainedThr: prevThr,
		})
		harness.Run(spec.New(o.Profile), pol, harness.Config{
			PageSize: o.Profile.PageSize(),
			Ratio:    ratio,
		})
		prevMig, prevThr = pol.QTables()
	}
	t.mig, t.thr = prevMig, prevThr
	return prevMig, prevThr
}

// ArtMemPolicy returns a fresh ArtMem policy with pretrained Q-tables
// applied on top of cfg.
func (o Options) ArtMemPolicy(cfg core.Config) *core.ArtMem {
	mig, thr := TrainTables(o, "Liblinear", cfg.Algorithm)
	cfg.PretrainedMig = mig
	cfg.PretrainedThr = thr
	return core.New(cfg)
}

// ---- shared run helpers ------------------------------------------------------

// runOne executes a single workload/policy/ratio combination directly,
// bypassing the scheduler and its cache. Grid experiments declare
// cells instead (see grid.go); runOne remains for the two setups the
// cell model cannot express: runs whose policy carries evolving state
// across iterations (Figure 14's retraining chains, where the Q-tables
// are not part of any cacheable identity) and runs that inspect the
// policy object after the run (the §6.4 overhead accounting).
func (o Options) runOne(workload string, pol policies.Policy, cfg harness.Config) harness.Result {
	spec, err := workloads.ByName(workload)
	if err != nil {
		panic(err)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = o.Profile.PageSize()
	}
	res := harness.Run(spec.New(o.Profile), pol, cfg)
	o.logf("  %s/%s@%s: exec=%.1fms ratio=%.3f mig=%d",
		res.Workload, res.Policy, res.Ratio, float64(res.ExecNs)/1e6,
		res.DRAMRatio, res.Migrations)
	return res
}

// ratios returns the experiment's memory-ratio sweep, trimmed in quick
// mode.
func (o Options) ratios() []harness.Ratio {
	if o.Quick {
		return []harness.Ratio{{Fast: 1, Slow: 1}, {Fast: 1, Slow: 8}}
	}
	return harness.PaperRatios
}

// appNames returns the evaluated application list, trimmed in quick mode.
func (o Options) appNames() []string {
	if o.Quick {
		return []string{"YCSB", "CC", "XSBench", "Liblinear"}
	}
	names := make([]string, len(workloads.Apps))
	for i, s := range workloads.Apps {
		names[i] = s.Name
	}
	return names
}

// normalize divides each value by base, guarding zero.
func normalize(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}
