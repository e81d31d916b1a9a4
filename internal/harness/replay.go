package harness

import (
	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

// replayRun is the replay core every Run* entry point shares: the
// machine, its fault injector, the normalized Config, and the Result
// being filled, plus the counter marks the time series difference
// between periods. Each entry point builds its machine and agents,
// then drives the run through replay (or its own loop plus period),
// verify, and finish.
type replayRun struct {
	m   *memsim.Machine
	inj *faultinject.Injector
	cfg Config
	res Result
	// check verifies the run's invariants when Config.CheckInvariants
	// is set: the machine's own by default, RunChurn's tenancy
	// cross-invariants there.
	check func() error

	prevMig, prevFast, prevSlow uint64
}

// newReplayRun starts the Result of a run labelled workload/policy on m.
func newReplayRun(m *memsim.Machine, inj *faultinject.Injector, cfg Config, workload, policy string) *replayRun {
	return &replayRun{
		m: m, inj: inj, cfg: cfg, check: m.CheckInvariants,
		res: Result{Workload: workload, Policy: policy, Ratio: cfg.Ratio},
	}
}

// replay drives w's accesses through the machine and, once per
// interval of virtual time (DefaultTickInterval when interval <= 0),
// runs one decision period: tick, then period's bookkeeping.
func (r *replayRun) replay(w workloads.Workload, interval int64, tick func(now int64)) {
	if interval <= 0 {
		interval = policies.DefaultTickInterval
	}
	m := r.m
	nextTick := interval
	for {
		batch, ok := w.Next()
		if !ok {
			break
		}
		for _, acc := range batch {
			m.Access(acc.Addr, acc.Write)
			if m.Now() >= nextTick {
				tick(m.Now())
				r.res.Ticks++
				nextTick = m.Now() + interval
				r.period(m.Now())
			}
		}
		r.res.Accesses += int64(len(batch))
	}
}

// period is the per-decision-period bookkeeping: the invariant check
// and, when collected, one point of the migration and DRAM-ratio
// series at now.
func (r *replayRun) period(now int64) {
	r.verify()
	if !r.cfg.CollectSeries {
		return
	}
	c := r.m.Counters()
	r.res.MigrationSeries.Append(now, float64(c.Migrations-r.prevMig))
	r.prevMig = c.Migrations
	df := c.FastAccesses - r.prevFast
	ds := c.SlowAccesses - r.prevSlow
	r.prevFast, r.prevSlow = c.FastAccesses, c.SlowAccesses
	if df+ds > 0 {
		r.res.RatioSeries.Append(now, float64(df)/float64(df+ds))
	}
}

// verify records the first invariant violation in Result.InvariantErr
// when Config.CheckInvariants is set.
func (r *replayRun) verify() {
	if r.cfg.CheckInvariants && r.res.InvariantErr == nil {
		r.res.InvariantErr = r.check()
	}
}

// finish fills the machine-wide Result fields, runs the final
// invariant check, and returns the Result.
func (r *replayRun) finish() Result {
	c := r.m.Counters()
	res := &r.res
	res.ExecNs = r.m.Now()
	res.Misses = c.FastAccesses + c.SlowAccesses
	res.DRAMRatio = c.DRAMRatio()
	res.Migrations = c.Migrations
	res.Promotions = c.Promotions
	res.Demotions = c.Demotions
	res.MigratedBytes = c.MigratedBytes
	res.Faults = c.Faults
	res.MigrationFailures = c.MigrationFailures
	res.BackgroundNs = r.m.BackgroundNs()
	if r.inj != nil {
		res.FaultStats = r.inj.Stats()
	}
	r.verify()
	return r.res
}
