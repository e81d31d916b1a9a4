// Package core implements ArtMem, the paper's contribution: a
// reinforcement-learning-enabled tiered memory manager that adaptively
// chooses *how many* pages to migrate and *how hot* a page must be to
// qualify, from real-time feedback on the fast-tier access ratio.
//
// The implementation follows §4 and Algorithm 1 of the paper:
//
//   - State: the PEBS-sampled fast-tier access ratio, discretized into
//     k+1 levels (Equation 1), plus a dedicated state for "no events
//     sampled" — k+2 states total.
//   - Actions: two Q-tables, one selecting the migration number from
//     {0, 16MB, 32MB, …, 2048MB} (paper §5, expressed in pages here so
//     scaled page sizes carry over), one adjusting the hotness threshold
//     by {−8, −4, 0, +4, +8} with a 16-access floor.
//   - Reward: τᵢ − β + λ(τᵢ − τᵢ₋₁)  (Equation 2), where λ is 1 only if
//     the previous period migrated pages.
//   - Page sorting: samples refresh recency in per-tier active/inactive
//     LRU lists; demotion victims come from the fast inactive tail,
//     promotion candidates from the slow active head, and promoted pages
//     are inserted at the *head of the fast active list* regardless of
//     prior status (§4.3's aggressive insertion).
//   - EMA frequency: per-page counts in base-2 bins with periodic
//     cooling; the threshold resets to the capacity-derived value after
//     each cooling and is refined by the RL agent in between.
//
// Config toggles reproduce the paper's ablations: DisableRL (heuristic
// thresholds, fixed migration number), DisableSorting (conservative
// status-preserving insertion), and LatencyReward (§6.3.4).
//
// Two runtimes wrap the agent for online use, both on one control loop
// (loop.go) with real sampling/migration/watchdog goroutines (the §4.4
// ksampled/kmigrated architecture). System runs one agent per tier
// boundary of its machine: one agent on the paper's two-tier machine,
// one per boundary of an N-tier chain (DESIGN.md §13). MultiSystem runs
// one agent per tenant (per memcg) over a shared machine.
package core

import (
	"errors"
	"fmt"

	"artmem/internal/dist"
	"artmem/internal/ema"
	"artmem/internal/lru"
	"artmem/internal/memsim"
	"artmem/internal/pebs"
	"artmem/internal/rl"
	"artmem/internal/telemetry"
)

// The paper fixes these parts of the agent (§5) and learns the rest; the
// counts are scaled to the simulator's smaller pages and shorter runs
// (DESIGN.md on count scaling).
const (
	// k is the access-ratio discretization: states 0..k plus the
	// no-sample state, k+2 = 12 states in all (§5).
	k = 10
	// numStates counts the ratio states plus the no-sample state.
	numStates = k + 2
	// noSampleState is the dedicated state for empty sampling windows.
	noSampleState = k + 1
	// coolingSamples is the EMA cooling trigger in recorded samples
	// (the paper's 2M, scaled).
	coolingSamples = 500_000
	// minThreshold is the hotness-threshold floor in per-page access
	// counts. The paper's floor is 16 accesses per 2MB page; scaled
	// pages aggregate far fewer accesses each, so the floor scales down
	// with them.
	minThreshold = 2
	// thresholdZeroAction is the index of the 0 delta in thresholdDeltas.
	thresholdZeroAction = 2

	// migrationRetries caps per-page retries when MovePage fails
	// transiently (memsim.ErrMigrationBusy).
	migrationRetries = 3
	// migrationBackoffNs is the background CPU cost charged for the
	// first retry of a busy page; each further retry doubles it, capped
	// at 8x.
	migrationBackoffNs = 2000
	// degradeAfter is the number of consecutive empty sampling windows
	// after which the agent falls back to the heuristic
	// capacity-threshold policy (graceful degradation: a dry signal must
	// not leave migration steered by a stale Q-state). RL re-engages on
	// the first window with samples.
	degradeAfter = 8
)

// migrationPages are the selectable migration sizes in pages: 0 plus
// eight doublings from 8 pages (16MB of 2MB pages) to 1024 pages
// (2048MB) — nine actions (§5).
var migrationPages = [...]int{0, 8, 16, 32, 64, 128, 256, 512, 1024}

// thresholdDeltas are the selectable threshold adjustments. The paper
// uses {−8, −4, 0, +4, +8} against its 16-access floor; scaled to the
// simulator's floor of 2 this is {−2, −1, 0, +1, +2}.
var thresholdDeltas = [...]int{-2, -1, 0, 1, 2}

// Config parameterizes ArtMem. The zero value is completed to the
// paper's tuned configuration by defaults().
type Config struct {
	// Beta is the desired fast-tier access ratio in state units; the
	// paper finds 8–10 optimal and we default to 9 (§6.3.7).
	Beta float64
	// Alpha, Gamma, Epsilon are the RL hyperparameters; zero values use
	// the paper's e⁻², e⁻¹, 0.3.
	Alpha, Gamma, Epsilon float64
	// Algorithm selects Q-learning (default) or SARSA (§6.3.5).
	Algorithm rl.Algorithm
	// TickInterval is the RL decision + migration period in virtual ns.
	// The paper uses 10s against minutes-long runs; scaled to the
	// simulator's second-long runs this is 10ms (see DESIGN.md).
	TickInterval int64
	// SamplePeriod is the PEBS sampling period (paper: 200; scaled
	// default 5). The paper's dynamic period adjustment (§6.4) is not
	// modelled: the period stays fixed for the run.
	SamplePeriod uint64
	// Seed drives exploration.
	Seed uint64

	// PretrainedMig and PretrainedThr, when non-nil, initialize the two
	// Q-tables from previously trained ones (dimensions must match). The
	// paper primes its agent the same way: "ArtMem runs the Liblinear
	// program several times to initialize the RL algorithm, primarily to
	// obtain a Q-table with learning experiences" (§6.2).
	PretrainedMig *rl.Table
	PretrainedThr *rl.Table

	// DisableRL replaces the agent with the heuristic: capacity-derived
	// threshold and a fixed mid-ladder migration number (ablation §6.3.1,
	// "heuristic adjustment strategies" in Figure 9).
	DisableRL bool
	// DisableSorting turns off the page-sorting component (ablation
	// §6.3.1): sampled accesses no longer refresh list recency, and
	// migrated pages keep their activity status (the conservative
	// insertion of prior systems) instead of landing at the head of the
	// fast active list.
	DisableSorting bool
	// LatencyReward switches the reward to the approximated
	// memory-latency signal (§6.3.4).
	LatencyReward bool
}

func (c *Config) defaults() {
	if c.Beta == 0 {
		c.Beta = 9
	}
	if c.Alpha == 0 {
		c.Alpha = rl.DefaultAlpha
	}
	if c.Gamma == 0 {
		c.Gamma = rl.DefaultGamma
	}
	if c.Epsilon == 0 {
		c.Epsilon = rl.DefaultEpsilon
	}
	if c.TickInterval == 0 {
		c.TickInterval = 10_000_000 // 10ms, the scaled 10s interval
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = 5
	}
}

// ArtMem is the policy. It implements the same Policy contract as the
// baselines in internal/policies (Name/Attach/Interval/Tick).
type ArtMem struct {
	cfg Config

	m       memsim.Env
	lists   *lru.PageLists
	sampler *pebs.Sampler
	hist    *ema.Histogram

	qMig *rl.Table // migration-number Q-table
	qThr *rl.Table // threshold-delta Q-table

	threshold uint32

	state     int // τ of the previous period
	actMig    int // actions taken in the previous period
	actThr    int
	migrated  bool // λ: did the previous period migrate?
	latEMA    float64
	scanQuota int

	// Degraded-mode state machine: consecutive empty sampling windows
	// trip the fallback to the heuristic policy; the first window with
	// samples re-engages RL.
	noSampleStreak int
	degraded       bool

	// Telemetry. The registry counters below replace the ad-hoc stat
	// fields this struct used to carry: they are atomic (safe to read
	// from the online runtime's control endpoints without the system
	// lock), they appear on /metrics for free, and FaultStats() snapshots
	// them for the existing experiment surface. tel is created lazily at
	// Attach when SetTelemetry was not called, so standalone harness runs
	// get a decision trace too.
	tel *telemetry.Set

	ctDecisions     *telemetry.Counter // RL periods elapsed
	ctRetries       *telemetry.Counter // MovePage retries after busy
	ctSkips         *telemetry.Counter // candidates abandoned
	ctRollbacks     *telemetry.Counter // demotions undone
	ctTierFullStops *telemetry.Counter // periods cut short, slow tier full
	ctDegradedTicks *telemetry.Counter // periods in heuristic fallback
	ctDegradedIn    *telemetry.Counter // transitions into fallback
	ctCoolings      *telemetry.Counter // EMA cooling threshold resets

	// Remaining per-period scratch surfaced for experiments and the
	// decision trace.
	rlNanos      float64
	lastWinFast  uint64
	lastWinSlow  uint64
	lastMigrated int
	// Per-period migration outcome, reset by migrate: candidates
	// attempted, permanently failed (skipped), and rolled back.
	lastAttempted int
	lastFailed    int
	lastRolled    int
}

// FaultStats counts the agent's resilience activity: how migration
// failures were absorbed and how much time was spent in degraded mode.
type FaultStats struct {
	// Retries is the number of MovePage retries after transient failures.
	Retries uint64
	// SkippedPages is the number of migration candidates abandoned after
	// retries were exhausted (skip-and-continue).
	SkippedPages uint64
	// Rollbacks is the number of demotions undone because the promotion
	// they made room for failed permanently (Nomad-style copy-then-commit).
	Rollbacks uint64
	// TierFullStops counts migration periods cut short because the slow
	// tier had no capacity left to demote into.
	TierFullStops uint64
	// DegradedTicks is the number of decision periods spent in the
	// heuristic fallback; DegradedEntries counts transitions into it.
	DegradedTicks   uint64
	DegradedEntries uint64
}

// New returns an ArtMem policy with the given configuration.
func New(cfg Config) *ArtMem {
	cfg.defaults()
	return &ArtMem{cfg: cfg}
}

// Name implements the policy contract.
func (a *ArtMem) Name() string {
	switch {
	case a.cfg.DisableRL && a.cfg.DisableSorting:
		return "ArtMem-base"
	case a.cfg.DisableRL:
		return "ArtMem-heuristic"
	case a.cfg.DisableSorting:
		return "ArtMem-nosort"
	case a.cfg.LatencyReward:
		return "ArtMem-latency"
	case a.cfg.Algorithm == rl.SARSA:
		return "ArtMem-sarsa"
	}
	return "ArtMem"
}

// Interval implements the policy contract.
func (a *ArtMem) Interval() int64 { return a.cfg.TickInterval }

// SetTelemetry wires the agent to a telemetry set: its resilience and
// decision counters are registered on set.Registry at Attach, and every
// RL period appends one structured event to set.Trace. Must be called
// before Attach; when it is not, Attach creates a private set so the
// counters and trace always exist.
func (a *ArtMem) SetTelemetry(set *telemetry.Set) { a.tel = set }

// Telemetry returns the agent's telemetry set (nil before Attach when
// SetTelemetry was never called).
func (a *ArtMem) Telemetry() *telemetry.Set { return a.tel }

// registerMetrics creates the agent's registry-backed counters. Guarded
// so a re-Attach (same agent, fresh machine) does not double-register.
func (a *ArtMem) registerMetrics() {
	if a.tel == nil {
		a.tel = telemetry.NewSet()
	}
	if a.ctDecisions != nil {
		return
	}
	reg := a.tel.Registry
	a.ctDecisions = reg.Counter("artmem_decisions_total",
		"RL decision periods elapsed (one Tick of Algorithm 1 each).")
	a.ctRetries = reg.Counter("artmem_migration_retries_total",
		"MovePage retries after transient busy failures.")
	a.ctSkips = reg.Counter("artmem_migration_skips_total",
		"Migration candidates abandoned after retries were exhausted.")
	a.ctRollbacks = reg.Counter("artmem_migration_rollbacks_total",
		"Demotions undone because the paired promotion failed permanently.")
	a.ctTierFullStops = reg.Counter("artmem_tier_full_stops_total",
		"Migration periods cut short because the slow tier was full.")
	a.ctDegradedTicks = reg.Counter("artmem_degraded_ticks_total",
		"Decision periods spent in the heuristic fallback.")
	a.ctDegradedIn = reg.Counter("artmem_degraded_entries_total",
		"Transitions into the heuristic fallback mode.")
	a.ctCoolings = reg.Counter("artmem_cooling_resets_total",
		"EMA cooling events (each resets the hotness threshold).")
}

// Attach implements the policy contract.
func (a *ArtMem) Attach(m *memsim.Machine) { a.AttachEnv(m) }

// AttachEnv binds the agent to an arbitrary machine surface — a whole
// machine or a tenant-scoped view (tenancy.TenantView), which is how
// the multi-tenant control plane runs one independent agent per tenant
// (implements policies.EnvPolicy).
func (a *ArtMem) AttachEnv(m memsim.Env) {
	a.registerMetrics()
	a.m = m
	a.lists = lru.New(m.NumPages())
	m.SetAllocHook(func(p memsim.PageID, t memsim.TierID) {
		a.lists.PushHead(lru.ActiveOf(t), p)
	})
	a.sampler = pebs.New(pebs.Config{
		Period:       a.cfg.SamplePeriod,
		RingSize:     64 * 1024,
		SampleCostNs: 20,
		Charge:       m.ChargeBackground,
	})
	if fi, ok := m.FaultInjector().(pebs.Injector); ok {
		// A chaos injector installed on the machine also perturbs the
		// sampling path when it implements the pebs hooks.
		a.sampler.SetInjector(fi)
	}
	m.SetSampler(a.sampler)
	if pt := a.tel.PageTrace; pt != nil {
		// Page-lifecycle tracing: journal allocation, sampling, LRU,
		// verdict, and migration events for the trace's hash-sampled page
		// subset. Each hook costs one branch for unsampled pages.
		m.SetPageTrace(pt)
		a.sampler.SetPageTrace(pt)
		a.lists.SetTransitionHook(func(p memsim.PageID, from, to lru.ListID) {
			if !pt.Sampled(uint64(p)) {
				return
			}
			pt.Append(telemetry.PageEvent{
				TimeNs: m.Now(),
				Page:   uint64(p),
				Kind:   telemetry.PageKindLRU,
				From:   from.String(),
				To:     to.String(),
			})
		})
	}
	a.hist = ema.New(m.NumPages(), coolingSamples)
	a.scanQuota = m.NumPages()/4 + 1

	rngSeed := a.cfg.Seed ^ 0xa57a57
	migCfg := rl.Config{
		States: numStates, Actions: len(migrationPages),
		Alpha: a.cfg.Alpha, Gamma: a.cfg.Gamma, Epsilon: a.cfg.Epsilon,
		Algorithm: a.cfg.Algorithm,
	}
	thrCfg := migCfg
	thrCfg.Actions = len(thresholdDeltas)
	a.qMig = rl.NewTable(migCfg, dist.NewRNG(rngSeed))
	a.qThr = rl.NewTable(thrCfg, dist.NewRNG(rngSeed+1))

	// Algorithm 1 line 1–2: the program loads from DRAM, so start in
	// state k with Q(k, no-migration) = 1 and τ₋₁ = k.
	a.qMig.SetQ(k, 0, 1)
	if a.cfg.PretrainedMig != nil {
		if err := a.qMig.CopyQFrom(a.cfg.PretrainedMig); err != nil {
			panic(err)
		}
	}
	if a.cfg.PretrainedThr != nil {
		if err := a.qThr.CopyQFrom(a.cfg.PretrainedThr); err != nil {
			panic(err)
		}
	}
	a.state = k
	a.actMig, a.actThr = 0, thresholdZeroAction

	a.threshold = a.capacityThreshold()
}

// capacityThreshold is the MEMTIS-style starting threshold, floored at
// the minimum (§5: "Heuristic Minimum Hotness Threshold").
func (a *ArtMem) capacityThreshold() uint32 {
	t := a.hist.CapacityThreshold(a.m.CapacityPages(memsim.Fast))
	if t < minThreshold {
		t = minThreshold
	}
	return t
}

// Threshold returns the current hotness threshold (for experiments).
func (a *ArtMem) Threshold() uint32 { return a.threshold }

// Decisions returns the number of RL periods elapsed. Safe to call
// concurrently with a running System (the count is a registry-backed
// atomic counter).
func (a *ArtMem) Decisions() uint64 { return a.ctDecisions.Value() }

// RLOverheadNs returns the cumulative virtual CPU time attributed to
// Q-table computation (§6.4 reports at most 0.07% of a CPU).
func (a *ArtMem) RLOverheadNs() float64 { return a.rlNanos }

// SamplingOverheadNs returns the virtual CPU time attributed to PEBS
// sampling: recorded samples times the per-sample processing cost (§6.4
// reports sampling at most 3% of a CPU).
func (a *ArtMem) SamplingOverheadNs() float64 {
	if a.sampler == nil {
		return 0
	}
	return float64(a.sampler.Total()) * 20
}

// Degraded reports whether the agent is currently in the heuristic
// fallback mode (sampling signal dry for degradeAfter periods).
func (a *ArtMem) Degraded() bool { return a.degraded }

// FaultStats returns a snapshot of the agent's resilience counters.
// The counters live on the telemetry registry; this accessor keeps the
// experiment-facing surface. Safe to call concurrently with a running
// System.
func (a *ArtMem) FaultStats() FaultStats {
	return FaultStats{
		Retries:         a.ctRetries.Value(),
		SkippedPages:    a.ctSkips.Value(),
		Rollbacks:       a.ctRollbacks.Value(),
		TierFullStops:   a.ctTierFullStops.Value(),
		DegradedTicks:   a.ctDegradedTicks.Value(),
		DegradedEntries: a.ctDegradedIn.Value(),
	}
}

// add returns the field-wise sum of f and g.
func (f FaultStats) add(g FaultStats) FaultStats {
	return FaultStats{
		Retries:         f.Retries + g.Retries,
		SkippedPages:    f.SkippedPages + g.SkippedPages,
		Rollbacks:       f.Rollbacks + g.Rollbacks,
		TierFullStops:   f.TierFullStops + g.TierFullStops,
		DegradedTicks:   f.DegradedTicks + g.DegradedTicks,
		DegradedEntries: f.DegradedEntries + g.DegradedEntries,
	}
}

// Sampler returns the agent's PEBS sampler (for stats endpoints).
func (a *ArtMem) Sampler() *pebs.Sampler { return a.sampler }

// QTables returns the two live Q-tables (migration-number, threshold).
// Used by the robustness study to transplant trained tables (§6.3.6).
func (a *ArtMem) QTables() (mig, thr *rl.Table) { return a.qMig, a.qThr }

// observeState computes τᵢ from the sampling window (Equation 1).
func (a *ArtMem) observeState() int {
	fast, slow := a.sampler.WindowCounts()
	a.lastWinFast, a.lastWinSlow = fast, slow
	total := fast + slow
	if total == 0 {
		// All accesses hit in cache or nothing ran: the dedicated state.
		return noSampleState
	}
	tau := int(fast * uint64(k) / total)
	if tau > k {
		tau = k
	}
	return tau
}

// reward computes Equation 2 for the transition prev → cur, or the
// latency-based alternative of §6.3.4.
func (a *ArtMem) reward(prev, cur int) float64 {
	lambda := 0.0
	if a.migrated {
		lambda = 1
	}
	if a.cfg.LatencyReward {
		// Approximate latency from the window's access mix, smoothed —
		// pending-request estimation reacts more slowly than the direct
		// ratio, giving the delayed adjustments seen in Figure 12.
		fast, slow := float64(a.lastWinFast), float64(a.lastWinSlow)
		tot := fast + slow
		chain := a.m.Config().Chain
		fastLat, slowLat := chain[memsim.Fast].LatencyNs, chain[memsim.Slow].LatencyNs
		lat := fastLat
		if tot > 0 {
			lat = (fast*fastLat + slow*slowLat) / tot
		}
		a.latEMA = 0.6*a.latEMA + 0.4*lat
		// Map [fastLat, slowLat] onto the same 0..k scale, inverted so
		// lower latency scores higher.
		span := slowLat - fastLat
		score := float64(k) * (slowLat - a.latEMA) / span
		prevScore := float64(prev)
		a.m.ChargeBackground(800) // extra collection cost (§6.3.4)
		return score - a.cfg.Beta + lambda*(score-prevScore)
	}
	ti, tprev := float64(cur), float64(prev)
	if cur == noSampleState {
		// No sampled events: treat as fully cache-served (best case).
		ti = float64(k)
	}
	if prev == noSampleState {
		tprev = float64(k)
	}
	return ti - a.cfg.Beta + lambda*(ti-tprev)
}

// PumpSamples performs the sampling thread's work (§4.4): drain the
// PEBS ring buffer into the EMA distribution ②, sort sampled pages by
// recency ③, run second-chance aging, and handle cooling. The harness's
// Tick calls it inline; the online runtime (System) calls it from a
// dedicated sampling goroutine between migration periods.
func (a *ArtMem) PumpSamples() {
	cooled := false
	a.sampler.Drain(func(s pebs.Sample) {
		if a.hist.Record(s.Page) {
			cooled = true
		}
		if !a.cfg.DisableSorting {
			// Page sorting: a sampled access is evidence of recency.
			a.lists.PushHead(lru.ActiveOf(a.m.TierOf(s.Page)), s.Page)
		}
	})
	// Second-chance aging keeps the inactive lists meaningful.
	a.lists.Age(memsim.Fast, a.scanQuota, a.m.TestAndClearAccessed)
	a.lists.Age(memsim.Slow, a.scanQuota, a.m.TestAndClearAccessed)
	a.m.ChargeBackground(float64(4*a.scanQuota) * 15)

	if cooled {
		// Reset the threshold after each cooling (§4.3).
		a.threshold = a.capacityThreshold()
		a.ctCoolings.Inc()
		a.tel.Trace.Append(telemetry.Event{
			TimeNs:    a.m.Now(),
			Kind:      telemetry.KindCooling,
			Threshold: a.threshold,
			Degraded:  a.degraded,
			Detail:    "EMA cooled, threshold reset",
		})
	}
}

// heuristicTick runs the fallback policy: capacity-derived threshold and
// a fixed mid-ladder migration number — the same strategy as the
// DisableRL ablation, reused as the degraded mode. state is the
// observed state for the decision-trace record (the heuristic itself
// ignores it).
func (a *ArtMem) heuristicTick(state int) {
	a.threshold = a.capacityThreshold()
	mid := len(migrationPages) / 2
	quota := migrationPages[mid]
	a.lastMigrated = a.migrate(quota)
	a.migrated = a.lastMigrated > 0
	a.traceDecision(state, 0, quota, 0)
}

// traceDecision appends the period's structured event to the decision
// trace — the record the paper's §6 measurements (quota, Q evolution,
// hit ratio) are reconstructed from.
func (a *ArtMem) traceDecision(state int, reward float64, quota, thrDelta int) {
	a.tel.Trace.Append(telemetry.Event{
		TimeNs:         a.m.Now(),
		Kind:           telemetry.KindDecision,
		State:          state,
		Reward:         reward,
		Quota:          quota,
		ThresholdDelta: thrDelta,
		Threshold:      a.threshold,
		Attempted:      a.lastAttempted,
		Promoted:       a.lastMigrated,
		Failed:         a.lastFailed,
		RolledBack:     a.lastRolled,
		WinFast:        a.lastWinFast,
		WinSlow:        a.lastWinSlow,
		Degraded:       a.degraded,
	})
}

// Tick implements the policy contract: one iteration of Algorithm 1.
func (a *ArtMem) Tick(now int64) {
	a.ctDecisions.Inc()
	// ① Drain sampling data and maintain the distribution and lists.
	a.PumpSamples()

	// ⑤ Observe the new state (also consumed by the heuristic paths for
	// the decision trace; it has no RNG and no behavioural effect there).
	cur := a.observeState()

	if a.cfg.DisableRL {
		// Heuristic ablation: capacity threshold, fixed migration number.
		a.heuristicTick(cur)
		return
	}

	// Graceful degradation: one empty window is a legitimate RL state
	// (the cache absorbed everything), but a long dry spell means the
	// sampling substrate itself is unhealthy — the no-sample reward would
	// keep scoring "best case" while slow-tier traffic goes unobserved.
	// After degradeAfter consecutive empty windows, fall back to the
	// heuristic policy; re-engage RL on the first window with samples.
	if cur == noSampleState {
		a.noSampleStreak++
	} else {
		a.noSampleStreak = 0
	}
	reengaged := false
	if a.degraded {
		if cur == noSampleState {
			a.ctDegradedTicks.Inc()
			a.heuristicTick(cur)
			return
		}
		a.degraded = false
		reengaged = true
		a.tel.Trace.Append(telemetry.Event{
			TimeNs: a.m.Now(), Kind: telemetry.KindReengaged, State: cur,
			Detail: "sampling signal returned, RL re-engaged",
		})
	} else if a.noSampleStreak >= degradeAfter {
		a.degraded = true
		a.ctDegradedIn.Inc()
		a.ctDegradedTicks.Inc()
		a.tel.Trace.Append(telemetry.Event{
			TimeNs: a.m.Now(), Kind: telemetry.KindDegraded, State: cur, Degraded: true,
			Detail: fmt.Sprintf("%d consecutive empty sampling windows", a.noSampleStreak),
		})
		a.heuristicTick(cur)
		return
	}

	nextMig := a.qMig.Choose(cur)
	nextThr := a.qThr.Choose(cur)
	var r float64
	if reengaged {
		// No reward bridges the degraded gap: the recorded actions were
		// not what steered those periods (the heuristic was). Restart the
		// trajectory from the fresh observation.
		a.state = cur
		a.migrated = false
	} else {
		r = a.reward(a.state, cur)
		a.qMig.Update(a.state, a.actMig, r, cur, nextMig)
		a.qThr.Update(a.state, a.actThr, r, cur, nextThr)
	}
	a.rlNanos += 120 // two table updates + two selections (§6.4)
	a.m.ChargeBackground(120)

	// Apply the threshold action with the minimum-threshold floor (§5)
	// and a generous ceiling that keeps exploration from walking the
	// threshold beyond any page's plausible count.
	delta := thresholdDeltas[nextThr]
	nt := int64(a.threshold) + int64(delta)
	if nt < int64(minThreshold) {
		nt = int64(minThreshold)
	}
	if max := int64(minThreshold) * 16; nt > max {
		nt = max
	}
	a.threshold = uint32(nt)

	// Apply the migration action.
	a.lastMigrated = a.migrate(migrationPages[nextMig])
	a.migrated = a.lastMigrated > 0
	a.traceDecision(cur, r, migrationPages[nextMig], delta)

	a.state = cur
	a.actMig, a.actThr = nextMig, nextThr
}

// migrate executes one migration period: promote up to want qualifying
// pages (count ≥ threshold) from the head of the slow tier's active
// list, demoting from the fast inactive tail first when space is needed
// (§4.4's migration thread). It returns the number of pages promoted.
func (a *ArtMem) migrate(want int) int {
	a.lastAttempted, a.lastFailed, a.lastRolled = 0, 0, 0
	if want == 0 {
		return 0
	}
	m := a.m
	// Collect promotion candidates from the head of the slow tier's
	// active list *in order* (§4.4): recency ranks first, and the
	// frequency threshold gates which of the recent pages qualify. The
	// walk is depth-limited — pages deep in the list are not recent, and
	// scavenging them would promote stale frequency (the exact failure
	// ArtMem's sorting is designed to avoid).
	cands := make([]memsim.PageID, 0, want)
	depth := want*4 + 64
	for p := a.lists.Head(lru.SlowActive); p != memsim.NoPage && len(cands) < want && depth > 0; p = a.lists.Next(p) {
		depth--
		count := a.hist.Count(p)
		qualified := count >= a.threshold
		if qualified {
			cands = append(cands, p)
		}
		a.tracePageVerdict(p, count, qualified)
	}
	a.lastAttempted = len(cands)
	promoted := 0
	for _, p := range cands {
		// Each candidate is one transaction: (optionally) demote a victim
		// to make room, then promote. List updates commit only after the
		// corresponding MovePage succeeds, and a demotion whose paired
		// promotion fails permanently is rolled back (Nomad-style
		// copy-then-commit), so list and tier state never diverge.
		victim := memsim.NoPage
		victimList := lru.None
		if m.FreePages(memsim.Fast) == 0 {
			// Demotion starts from the tail of the fast inactive list.
			victim = a.lists.Tail(lru.FastInactive)
			if victim == memsim.NoPage {
				victim = a.lists.Tail(lru.FastActive)
			}
			if victim == memsim.NoPage {
				break
			}
			// Recency decides the victim (tail of the inactive list): a
			// page that has not been referenced recently is demotable even
			// if its accumulated EMA count is still high — stale frequency
			// is exactly what the paper's page sorting corrects for (§4.3).
			// Only an *actively hot* victim (still on the active list with
			// a count above the incoming page's) blocks the swap.
			victimList = a.lists.ListOf(victim)
			if victimList == lru.FastActive &&
				a.hist.Count(victim) > a.hist.Count(p) {
				break
			}
			switch err := a.moveWithRetry(victim, memsim.Slow); {
			case err == nil:
				a.insertAfterMigration(victim, memsim.Slow, victimList == lru.FastActive)
			case errors.Is(err, memsim.ErrTierFull):
				// The slow tier has no room: no demotion can succeed this
				// period, so stop instead of hammering a full tier.
				a.ctTierFullStops.Inc()
				a.tel.Trace.Append(telemetry.Event{
					TimeNs: m.Now(), Kind: telemetry.KindFault,
					Promoted: promoted, Degraded: a.degraded,
					Detail: "slow tier full, migration period stopped",
				})
				return promoted
			default:
				// A transient failure outlived the retries: skip this
				// candidate and continue (the victim stays resident).
				a.ctSkips.Inc()
				a.lastFailed++
				a.tracePageOutcome(p, telemetry.OutcomeSkipped,
					"victim demotion retries exhausted")
				continue
			}
		}
		wasActive := a.lists.ListOf(p) == lru.SlowActive
		if err := a.moveWithRetry(p, memsim.Fast); err != nil {
			a.ctSkips.Inc()
			a.lastFailed++
			a.tracePageOutcome(p, telemetry.OutcomeSkipped,
				"promotion retries exhausted")
			if victim != memsim.NoPage {
				// Roll back the demotion performed solely to make room for
				// this promotion: re-promote the victim and restore its
				// list membership, so a failed transaction does not evict
				// resident pages for nothing.
				if a.moveWithRetry(victim, memsim.Fast) == nil {
					a.lists.PushHead(victimList, victim)
					a.ctRollbacks.Inc()
					a.lastRolled++
					a.tracePageOutcome(victim, telemetry.OutcomeRolledBack,
						"paired promotion failed, demotion undone")
				}
			}
			continue
		}
		a.insertAfterMigration(p, memsim.Fast, wasActive)
		promoted++
	}
	return promoted
}

// tracePageVerdict journals the policy's promotion verdict for a
// sampled candidate: the hotness comparison that accepted or rejected
// it, with the numbers behind it.
func (a *ArtMem) tracePageVerdict(p memsim.PageID, count uint32, qualified bool) {
	pt := a.tel.PageTrace
	if !pt.Sampled(uint64(p)) {
		return
	}
	outcome, op := telemetry.OutcomeRejected, "<"
	if qualified {
		outcome, op = telemetry.OutcomeQualified, ">="
	}
	pt.Append(telemetry.PageEvent{
		TimeNs:    a.m.Now(),
		Page:      uint64(p),
		Kind:      telemetry.PageKindVerdict,
		Tier:      a.m.TierOf(p).String(),
		Count:     count,
		Threshold: a.threshold,
		Outcome:   outcome,
		Reason:    fmt.Sprintf("count %d %s threshold %d", count, op, a.threshold),
	})
}

// tracePageOutcome journals a policy-level migration outcome (skip,
// rollback) for a sampled page. The machine journals the per-attempt
// outcomes (settled/busy/tier_full) itself.
func (a *ArtMem) tracePageOutcome(p memsim.PageID, outcome, reason string) {
	pt := a.tel.PageTrace
	if !pt.Sampled(uint64(p)) {
		return
	}
	pt.Append(telemetry.PageEvent{
		TimeNs:  a.m.Now(),
		Page:    uint64(p),
		Kind:    telemetry.PageKindMigration,
		Tier:    a.m.TierOf(p).String(),
		Outcome: outcome,
		Reason:  reason,
	})
}

// moveWithRetry attempts MovePage(p, dst), retrying transient busy
// failures (memsim.ErrMigrationBusy) with capped exponential backoff.
// Each retry charges the backoff to background CPU time — the migration
// thread waiting out a busy page. Non-transient errors (ErrTierFull,
// ErrNotAllocated) return immediately; after the retry budget is
// exhausted the last busy error is returned for the caller to skip on.
func (a *ArtMem) moveWithRetry(p memsim.PageID, dst memsim.TierID) error {
	backoff := float64(migrationBackoffNs)
	for attempt := 0; ; attempt++ {
		err := a.m.MovePage(p, dst)
		if err == nil || !errors.Is(err, memsim.ErrMigrationBusy) {
			return err
		}
		if attempt >= migrationRetries {
			return err
		}
		a.ctRetries.Inc()
		a.m.ChargeBackground(backoff)
		if backoff < migrationBackoffNs*8 {
			backoff *= 2
		}
	}
}

// insertAfterMigration places a migrated page on the destination tier's
// lists. ArtMem's aggressive policy inserts promoted pages at the head
// of the active list regardless of prior status; the DisableSorting
// ablation preserves status like prior systems (§4.3).
func (a *ArtMem) insertAfterMigration(p memsim.PageID, dst memsim.TierID, wasActive bool) {
	if a.cfg.DisableSorting {
		if wasActive {
			a.lists.PushHead(lru.ActiveOf(dst), p)
		} else {
			a.lists.PushHead(lru.InactiveOf(dst), p)
		}
		return
	}
	if dst == memsim.Fast {
		// Always to the head of the fast active list.
		a.lists.PushHead(lru.FastActive, p)
	} else {
		// Demotions keep status (the asymmetry is deliberate: the paper's
		// aggressive insertion concerns promoted pages).
		if wasActive {
			a.lists.PushHead(lru.SlowActive, p)
		} else {
			a.lists.PushHead(lru.SlowInactive, p)
		}
	}
}
