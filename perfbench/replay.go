package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/rl"
	"artmem/internal/tier"
	"artmem/internal/workloads"
)

// replayCell describes one deterministic replay: the workload, the
// machine configuration, and the ArtMem agents (one per tier boundary).
// Its outcome is exactly what harness.Run (Chain == "") or
// harness.RunTiered (Chain != "") returns for the same inputs; the
// package's tests pin that equivalence.
type replayCell struct {
	NewWorkload func() workloads.Workload
	Config      harness.Config
	// WarmAccesses is the replay prefix run as warm-up, inside set-up
	// time; the timed phase replays the rest of the trace.
	WarmAccesses int64
}

// newAgent builds boundary b's agent. Agent seeds are fixed, offset
// per boundary as the tiers experiment does, so --seed varies only the
// workload's inputs.
func (rc replayCell) newAgent(b int) *core.ArtMem {
	return core.New(core.Config{Seed: 1 + uint64(b)})
}

// replayTimes is the time breakdown of a replay. Set-up and the timed
// phase are measured in wall and process CPU time; the layer split of
// the timed phase is wall time.
type replayTimes struct {
	setup, timed      span
	accesses          int64 // accesses replayed in the timed phase
	nextNs, loopNs    int64 // Workload.Next, and the batch loop (Access + ticks)
	tickNs            int64
	refWallNs         int64     // reference slices inside the timed phase
	ticks             []float64 // per-period tick wall times
	batchNs           []float64 // per-batch simulated time: the virtual clock's advance over the batch
	gcBefore, gcAfter gcSample
	agents            []*core.ArtMem
	invariantErr      error
}

// replayProfile is the benchmark's replay scale: the repository's
// default experiment profile (1/64 of the paper), seeded, with traces
// of 24M accesses so one cell's timed phase lasts seconds, not
// fractions of one.
func replayProfile(seed uint64) workloads.Profile {
	p := workloads.DefaultProfile()
	p.Seed = seed
	p.AppAccesses = 24_000_000
	p.PatternAccesses = 24_000_000
	return p
}

// replayWarmAccesses is the warm-up prefix of every replay: it covers
// the first-touch sweep of the footprint and dozens of agent decision
// periods.
const replayWarmAccesses = 4_000_000

// replayXSBench is the replay workload: one Figure 7 cell, XSBench at
// DRAM:PM 1:4 under an ArtMem agent on the plain two-tier machine.
func replayXSBench(seed uint64) replayCell {
	p := replayProfile(seed)
	return replayCell{
		NewWorkload:  func() workloads.Workload { return workloads.NewXSBench(p) },
		Config:       harness.Config{PageSize: p.PageSize(), Ratio: harness.Ratio{Fast: 1, Slow: 4}},
		WarmAccesses: replayWarmAccesses,
	}
}

// replayChainS2 is the replay-chain workload: S2 on a non-exclusive
// DRAM/CXL/PM chain, one ArtMem agent per boundary.
func replayChainS2(seed uint64) replayCell {
	p := replayProfile(seed)
	spec, err := workloads.ByName("S2")
	if err != nil {
		panic(err)
	}
	return replayCell{
		NewWorkload: func() workloads.Workload { return spec.New(p) },
		Config: harness.Config{
			PageSize:     p.PageSize(),
			TierChain:    "DRAM:cap=12.5%/CXL:cap=25%/PM",
			NonExclusive: true,
		},
		WarmAccesses: replayWarmAccesses,
	}
}

// replay runs the cell through the same loop harness.Run and
// harness.RunTiered use, split into a warm-up prefix (ending with a
// GC, both inside set-up time) and the timed remainder. Its clock
// reads (three per 16384-access batch, two per agent tick) are cheap
// enough to stay on in every run. Every refEvery batches it runs a
// reference slice (speed.go) on its thread.
//
// A batch's latency is simulated: the virtual clock's advance while the
// machine applies it. The replay loop is closed and synchronous, so the
// host time of a batch only measures the host, which accesses_per_s and
// the layer shares already do. The simulated batch latency is exact per
// seed, and it moves with placement and migration interference.
func (rc replayCell) replay() (harness.Result, replayTimes) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var rt replayTimes
	var meter refMeter
	t0 := now()
	w := rc.NewWorkload()
	defer w.Close()

	cfg := rc.Config
	if cfg.Ratio == (harness.Ratio{}) {
		cfg.Ratio = harness.Ratio{Fast: 1, Slow: 1} // harness's default split
	}
	mcfg := memsim.DefaultConfig(w.FootprintBytes(), cfg.Ratio.FastBytes(w.FootprintBytes()), cfg.PageSize)
	if cfg.TierChain != "" {
		ch, err := tier.ParseChain(cfg.TierChain)
		if err != nil {
			panic(err)
		}
		mcfg.Chain = ch
		mcfg.NonExclusive = cfg.NonExclusive
	}
	m := memsim.NewMachine(mcfg)

	var hub *memsim.BoundaryHub
	nb := 1
	if cfg.TierChain != "" {
		hub = memsim.NewBoundaryHub(m)
		nb = hub.NumBoundaries()
	}
	var interval int64
	for b := 0; b < nb; b++ {
		a := rc.newAgent(b)
		if hub != nil {
			a.AttachEnv(hub.View(b))
		} else {
			a.Attach(m)
		}
		rt.agents = append(rt.agents, a)
		if iv := a.Interval(); iv > interval {
			interval = iv
		}
	}
	if interval <= 0 {
		interval = policies.DefaultTickInterval
	}
	res := harness.Result{Workload: w.Name(), Policy: rt.agents[0].Name(), Ratio: cfg.Ratio}
	nextTick := interval
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }

	// loop replays batches until the trace ends or limit accesses have
	// been replayed in total; timed enables the wall-clock accounting.
	done := false
	batches := 0
	loop := func(limit int64, timed bool) {
		for !done && res.Accesses < limit {
			if batches%refEvery == 0 {
				meter.slice()
			}
			batches++
			var tickNs int64
			v0 := m.Now()
			b0 := clock()
			batch, ok := w.Next()
			b1 := clock()
			if !ok {
				done = true
				break
			}
			for _, acc := range batch {
				m.Access(acc.Addr, acc.Write)
				if m.Now() >= nextTick {
					k0 := clock()
					vnow := m.Now()
					for _, a := range rt.agents {
						a.Tick(vnow)
					}
					res.Ticks++
					nextTick = m.Now() + interval
					d := clock() - k0
					if timed {
						tickNs += d
						rt.ticks = append(rt.ticks, float64(d))
					}
				}
			}
			b2 := clock()
			res.Accesses += int64(len(batch))
			if timed {
				rt.accesses += int64(len(batch))
				rt.nextNs += b1 - b0
				rt.loopNs += b2 - b1
				rt.tickNs += tickNs
				rt.batchNs = append(rt.batchNs, float64(m.Now()-v0))
			}
		}
	}

	loop(rc.WarmAccesses, false)
	runtime.GC()
	p0 := now()
	rt.setup = t0.to(p0).without(meter.take())

	rt.gcBefore = readGC()
	loop(1<<62, true)
	rt.timed = p0.to(now()).without(meter.take())
	rt.gcAfter = readGC()

	c := m.Counters()
	res.ExecNs = m.Now()
	res.Misses = c.FastAccesses + c.SlowAccesses
	res.DRAMRatio = c.DRAMRatio()
	res.Migrations = c.Migrations
	res.Promotions = c.Promotions
	res.Demotions = c.Demotions
	res.MigratedBytes = c.MigratedBytes
	res.Faults = c.Faults
	res.MigrationFailures = c.MigrationFailures
	res.BackgroundNs = m.BackgroundNs()
	if cfg.TierChain != "" {
		res.Tiers = tierStats(m, c)
	}
	rt.invariantErr = m.CheckInvariants()
	return res, rt
}

// tierStats assembles the per-tier and per-boundary outcome of a chain
// replay the way harness.RunTiered reports it.
func tierStats(m *memsim.Machine, c memsim.Counters) *harness.TierStats {
	ts := &harness.TierStats{
		ShadowDiscards:    c.ShadowDiscards,
		ShadowInvalidates: c.ShadowInvalidates,
		ShadowReclaims:    c.ShadowReclaims,
	}
	for t := 0; t < m.Tiers(); t++ {
		tid := memsim.TierID(t)
		ts.Names = append(ts.Names, m.TierName(tid))
		ts.Used = append(ts.Used, m.UsedPages(tid))
		ts.Capacity = append(ts.Capacity, m.CapacityPages(tid))
		ts.ShadowPages = append(ts.ShadowPages, m.ShadowPages(tid))
		ts.Accesses = append(ts.Accesses, m.TierAccesses(tid))
	}
	for b := 0; b < m.NumBoundaries(); b++ {
		bs := m.BoundaryStatsAt(b)
		ts.BoundaryPromotions = append(ts.BoundaryPromotions, bs.Promotions)
		ts.BoundaryDemotions = append(ts.BoundaryDemotions, bs.Demotions)
		ts.BoundaryDiscards = append(ts.BoundaryDiscards, bs.ShadowDiscards)
	}
	return ts
}

func runReplay(seed uint64, traced bool) cell      { return replayXSBench(seed).run(traced) }
func runReplayChain(seed uint64, traced bool) cell { return replayChainS2(seed).run(traced) }

// run executes one replay cell and folds its outcome into the
// benchmark's metrics. A replay either completes and passes its checks
// or fails as a whole: attempted counts the one replay.
func (rc replayCell) run(traced bool) cell {
	res, rt := rc.replay()
	c := cell{
		setup:       rt.setup,
		accesses:    rt.accesses,
		timed:       rt.timed,
		latNs:       rt.batchNs,
		fastRatio:   res.DRAMRatio,
		simExecMs:   float64(res.ExecNs) / 1e6,
		tenantMinFR: res.DRAMRatio, // a single tenant is its own worst tenant
		attempted:   1,
		fingerprint: fingerprint(res),
	}
	if rt.invariantErr != nil {
		c.errs = append(c.errs, "invariants: "+rt.invariantErr.Error())
	}
	if res.Accesses == 0 || rt.accesses == 0 {
		c.errs = append(c.errs, "replay applied no accesses in its timed phase")
	}
	if len(c.errs) > 0 {
		c.failed = 1
	}
	if !traced {
		return c
	}

	l := map[string]float64{}
	n := float64(rt.accesses)
	wall := rt.timed.wallS * 1e9
	l["workloads.next_ns_per_access"] = float64(rt.nextNs) / n
	l["workloads.next_frac"] = float64(rt.nextNs) / wall
	l["memsim.access_ns"] = float64(rt.loopNs-rt.tickNs) / n
	l["memsim.access_frac"] = float64(rt.loopNs-rt.tickNs) / wall
	l["core.tick_frac"] = float64(rt.tickNs) / wall
	l["core.control_busy_frac"] = l["core.tick_frac"] // the tick is the whole control loop here
	l["bench.layer_coverage"] = float64(rt.nextNs+rt.loopNs) / wall
	sort.Float64s(rt.ticks)
	l["core.tick_ms_p50"] = quantile(rt.ticks, 0.50) / 1e6
	l["core.tick_ms_p99"] = quantile(rt.ticks, 0.99) / 1e6
	l["core.ticks"] = float64(res.Ticks)
	l["core.decisions_per_maccess"] = float64(res.Ticks*len(rt.agents)) / (float64(res.Accesses) / 1e6)

	l["memsim.cache_hit_frac"] = frac(float64(uint64(res.Accesses)-res.Misses), float64(res.Accesses))
	l["memsim.migrations"] = float64(res.Migrations)
	l["memsim.promotions"] = float64(res.Promotions)
	l["memsim.demotions"] = float64(res.Demotions)
	agentLayers(l, rt.agents)
	if ts := res.Tiers; ts != nil {
		l["tier.shadow_discards"] = float64(ts.ShadowDiscards)
		l["tier.shadow_invalidates"] = float64(ts.ShadowInvalidates)
		l["tier.shadow_reclaims"] = float64(ts.ShadowReclaims)
		l["tier.discard_frac"] = frac(float64(ts.ShadowDiscards), float64(res.Demotions))
	}
	runtimeLayers(l, rt.gcBefore, rt.gcAfter, rt.accesses)
	c.layers = l
	c.layerSamples = map[string]int{
		"core.tick_ms": len(rt.ticks),
		"batches":      len(rt.batchNs),
	}
	return c
}

// fingerprint renders a replay Result field for field, through its
// pointer fields, so two replays compare exactly.
func fingerprint(res harness.Result) string {
	var tiers harness.TierStats
	if res.Tiers != nil {
		tiers = *res.Tiers
	}
	res.Tiers = nil
	return fmt.Sprintf("%+v tiers=%+v", res, tiers)
}

// agentLayers fills the sampling (pebs) and learning (rl) counters
// summed over the agents. Callers must hold the agents quiescent.
func agentLayers(l map[string]float64, agents []*core.ArtMem) {
	var taken, dropped, updates, explores, visits float64
	for _, a := range agents {
		st := a.Sampler().Stats()
		taken += float64(st.Taken)
		dropped += float64(st.Dropped)
		mig, thr := a.QTables()
		for _, t := range [...]*rl.Table{mig, thr} {
			updates += float64(t.Updates())
			explores += float64(t.Explorations())
			for _, v := range t.Snapshot().Visits {
				visits += float64(v)
			}
		}
	}
	l["pebs.samples"] = taken
	l["pebs.drop_frac"] = frac(dropped, taken)
	l["rl.updates"] = updates
	l["rl.explore_frac"] = frac(explores, visits)
}
