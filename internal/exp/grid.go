package exp

import (
	"fmt"
	"sync"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/rl"
	"artmem/internal/sched"
	"artmem/internal/workloads"
)

// policySpec pairs a policy's display name and canonical identity with
// its constructor. The id must capture everything that influences the
// policy's behaviour — construction parameters and, for ArtMem,
// pretraining provenance — because the run cache keys on it; the name
// is what tables print.
type policySpec struct {
	name string
	id   string
	mk   func() policies.Policy
}

// baselineSpec returns the spec for a registry baseline, whose name is
// its complete identity (baseline constructors take no parameters in
// experiment grids).
func baselineSpec(name string) policySpec {
	return policySpec{name: name, id: name, mk: func() policies.Policy { return mustPolicy(name) }}
}

// spec returns a fully custom policy spec (e.g. MEMTIS with a
// threshold override); id must extend the name with every parameter.
func spec(name, id string, mk func() policies.Policy) policySpec {
	return policySpec{name: name, id: id, mk: mk}
}

// artmemSpec returns the standard evaluated ArtMem: cfg on top of
// Q-tables pretrained on Liblinear (§6.2), as ArtMemPolicy builds.
func (o Options) artmemSpec(cfg core.Config) policySpec {
	return o.artmemTrainedSpec("Liblinear", cfg.Algorithm, cfg)
}

// artmemTrainedSpec returns an ArtMem variant pretrained on an
// arbitrary workload/algorithm (the Figure 13/14 studies).
func (o Options) artmemTrainedSpec(train string, alg rl.Algorithm, cfg core.Config) policySpec {
	return policySpec{
		name: "ArtMem",
		id:   artmemID(train, alg, cfg),
		mk: func() policies.Policy {
			mig, thr := TrainTables(o, train, alg)
			c := cfg
			c.Algorithm = alg
			c.PretrainedMig, c.PretrainedThr = mig, thr
			return core.New(c)
		},
	}
}

// artmemID canonically encodes an ArtMem configuration plus its
// pretraining provenance. The Q-table pointers are dropped from the
// encoding — they are not comparable values — and replaced by the
// (train workload, algorithm) pair that deterministically produces
// them under TrainTables, which also folds in the profile via the
// cell key.
func artmemID(train string, alg rl.Algorithm, cfg core.Config) string {
	c := cfg
	c.PretrainedMig, c.PretrainedThr = nil, nil
	return fmt.Sprintf("ArtMem|train=%s|alg=%d|cfg=%+v", train, alg, c)
}

// allPolicySpecs returns the eight evaluated systems as grid specs: the
// seven baselines of Table 1 plus ArtMem (pretrained).
func (o Options) allPolicySpecs() []policySpec {
	var ps []policySpec
	for _, f := range policies.Baselines() {
		if f.Name == "Static" {
			continue // Static is only the Figure 2 normalization baseline
		}
		ps = append(ps, baselineSpec(f.Name))
	}
	return append(ps, o.artmemSpec(core.Config{}))
}

// ---- grid ------------------------------------------------------------------

// grid collects an experiment's cells in declaration order. Cell
// indices are stable handles: run() returns results positioned exactly
// as the cells were added, whatever the scheduler's worker count, so
// rendering code indexes results instead of sequencing runs.
type grid struct {
	o     Options
	cells []sched.Cell
}

// newGrid starts an empty grid under the experiment's options.
func (o Options) newGrid() *grid { return &grid{o: o} }

// add declares one standard cell — workload × policy × config at the
// experiment profile — and returns its index. The workload and policy
// are constructed inside the cell so declaration stays cheap and
// cached cells never build either.
func (g *grid) add(workload string, pol policySpec, cfg harness.Config) int {
	o := g.o
	if cfg.PageSize == 0 {
		cfg.PageSize = o.Profile.PageSize()
	}
	return g.addCell(sched.Key(workload, o.Profile, pol.id, cfg, ""), func() harness.Result {
		spec, err := workloads.ByName(workload)
		if err != nil {
			panic(err)
		}
		res := harness.Run(spec.New(o.Profile), pol.mk(), cfg)
		o.logf("  %s/%s@%s: exec=%.1fms ratio=%.3f mig=%d",
			res.Workload, res.Policy, res.Ratio, float64(res.ExecNs)/1e6,
			res.DRAMRatio, res.Migrations)
		return res
	})
}

// addCell declares a fully custom cell (a non-standard setup such as
// Figure 16a's fixed fast tier); the caller supplies the complete
// cache key, normally via sched.Key with a disambiguating extra.
func (g *grid) addCell(key string, run func() harness.Result) int {
	g.cells = append(g.cells, sched.Cell{Key: key, Run: run})
	return len(g.cells) - 1
}

// run executes every declared cell through the experiment's scheduler
// and returns results indexed by the handles add returned.
func (g *grid) run() []harness.Result {
	return g.o.scheduler().RunGrid(g.cells)
}

// defaultSched serves experiments run without an explicit scheduler
// (tests, library callers): serial execution with a process-wide
// memoizing cache, so repeated cells across experiments still compute
// once. cmd/artbench always installs its own scheduler.
var (
	defaultSchedOnce sync.Once
	defaultSched     *sched.Scheduler
)

// scheduler returns the options' scheduler, or the process default.
func (o Options) scheduler() *sched.Scheduler {
	if o.Sched != nil {
		return o.Sched
	}
	defaultSchedOnce.Do(func() {
		defaultSched = sched.New(sched.Config{Workers: 1, Cache: sched.NewCache("")})
	})
	return defaultSched
}
