package tenancy

import (
	"fmt"

	"artmem/internal/memsim"
)

// Mode selects how the arbiter partitions the fast tier.
type Mode int

const (
	// ModeOff disables quotas entirely: tenants contend for the fast
	// tier with no accounting — the fairness experiment's baseline.
	ModeOff Mode = iota
	// ModeStatic partitions the fast tier by tenant weight once per
	// membership change.
	ModeStatic
	// ModeDynamic starts from the static split and periodically moves
	// quota from the tenant with the highest windowed hit ratio to the
	// one with the lowest — descending the hit-ratio gradient toward
	// equalized service.
	ModeDynamic
)

// String returns "off", "static", or "dynamic".
func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	default:
		return "off"
	}
}

// ArbiterConfig parameterizes the fast-tier arbiter.
type ArbiterConfig struct {
	// Mode selects the quota policy (default ModeOff).
	Mode Mode
	// Admission enables TierBPF-style migration admission control:
	// each control period every tenant gets a promotion budget
	// proportional to its weight, carved from the shared migration
	// bandwidth; promotions past the budget are denied with
	// ErrAdmissionDenied. Latency-SLO tenants may additionally preempt
	// the batch tenants' pooled budget (see SLOClass). Demotions are
	// never denied — reclaim must not block.
	Admission bool
	// BandwidthPagesPerPeriod is the shared per-period promotion
	// budget split between tenants by weight; 0 derives fastCap/8+1.
	BandwidthPagesPerPeriod int
	// RebalancePeriods is how many control periods elapse between
	// dynamic rebalances; 0 uses 8.
	RebalancePeriods int
	// QuotaStepFrac is the quota moved per rebalance as a fraction of
	// fast-tier capacity; 0 uses 1/64.
	QuotaStepFrac float64
	// MinQuotaFrac floors every tenant's quota at this fraction of its
	// static share, so dynamic mode can never starve a tenant; 0 uses
	// 0.25.
	MinQuotaFrac float64
	// DeadbandHitRatio suppresses rebalances when the windowed
	// hit-ratio spread is below this; 0 uses 0.05.
	DeadbandHitRatio float64
	// MaxArrivalsPerPeriod caps tenant registrations admitted per
	// control period — backpressure that keeps an arrival burst from
	// stampeding the plane. Excess registrations fail with
	// ErrRegistrationThrottled and may be retried next period; 0 means
	// unlimited.
	MaxArrivalsPerPeriod int
	// LatencyQuotaBoost multiplies a latency-SLO tenant's weight in the
	// quota and budget splits, so latency tenants claim a larger
	// fast-tier share (and promotion budget) than batch tenants of the
	// same configured weight. 0 or 1 means no boost — with no latency
	// tenants, or at boost 1, behaviour is identical to plain weighted
	// splits.
	LatencyQuotaBoost int
}

func (c *ArbiterConfig) defaults(fastCap int) {
	if c.BandwidthPagesPerPeriod == 0 {
		c.BandwidthPagesPerPeriod = fastCap/8 + 1
	}
	if c.RebalancePeriods == 0 {
		c.RebalancePeriods = 8
	}
	if c.QuotaStepFrac == 0 {
		c.QuotaStepFrac = 1.0 / 64
	}
	if c.MinQuotaFrac == 0 {
		c.MinQuotaFrac = 0.25
	}
	if c.DeadbandHitRatio == 0 {
		c.DeadbandHitRatio = 0.05
	}
	if c.LatencyQuotaBoost < 1 {
		c.LatencyQuotaBoost = 1
	}
}

// ErrAdmissionDenied is returned by a TenantView's MovePage when the
// arbiter's per-period promotion budget for the tenant is exhausted.
// It wraps memsim.ErrTierFull so policies treat a denial like a full
// tier: stop promoting this period and try again next period.
var ErrAdmissionDenied = fmt.Errorf("tenancy: promotion denied by admission control: %w", memsim.ErrTierFull)

// Arbiter partitions the fast tier between the plane's *active* tenants
// and meters their promotion traffic. Every per-period pass (budget
// refill, dynamic rebalance) walks only the active slot list, so the
// period cost is O(active tenants) regardless of plane capacity — the
// property that keeps a 1000-tenant plane from stalling the migration
// thread. All methods must be called from the single control-loop
// thread (or under the runtime's lock).
type Arbiter struct {
	cfg ArbiterConfig
	m   *memsim.Machine

	// Per-slot state, indexed by slot id (== memsim.TenantID). Slots
	// enter via addTenant and leave via removeTenant as tenants
	// register and deregister.
	weights  []int
	classes  []SLOClass
	isActive []bool
	active   []int // active slot ids, ascending
	sumW     int

	// staticQuota is the weight-proportional split of the fast tier
	// across the active set; quota is the live assignment (equal to
	// staticQuota until dynamic mode moves shares around). Zero-valued
	// in ModeOff. Membership changes recompute the split from scratch,
	// which deliberately resets dynamic drift: the gradient observed
	// against the old tenant set says nothing about the new one.
	staticQuota []int
	quota       []int

	// Per-period promotion budgets, indexed by slot. batchPool
	// aggregates the batch tenants' budgets so a latency-SLO tenant can
	// preempt batch bandwidth in O(1): batch promotions draw from their
	// own budget AND the pool, latency promotions fall back to the pool
	// once their own budget is spent. With no latency tenants the pool
	// can never bind before the individual budgets do, so behaviour is
	// identical to plain per-tenant budgets.
	budget    []int
	batchPool int

	denials     []uint64
	preemptions []uint64
	rebalances  uint64
	periods     int

	// Windowed hit-ratio state for dynamic mode and reporting.
	prevFast, prevSlow []uint64
	window             []float64
}

// newArbiter returns an empty arbiter over `capacity` slots; tenants
// join via addTenant.
func newArbiter(m *memsim.Machine, capacity int, cfg ArbiterConfig) *Arbiter {
	cfg.defaults(m.CapacityPages(memsim.Fast))
	return &Arbiter{
		cfg:         cfg,
		m:           m,
		weights:     make([]int, capacity),
		classes:     make([]SLOClass, capacity),
		isActive:    make([]bool, capacity),
		staticQuota: make([]int, capacity),
		quota:       make([]int, capacity),
		budget:      make([]int, capacity),
		denials:     make([]uint64, capacity),
		preemptions: make([]uint64, capacity),
		prevFast:    make([]uint64, capacity),
		prevSlow:    make([]uint64, capacity),
		window:      make([]float64, capacity),
	}
}

// addTenant activates a slot. Quotas and budgets are recomputed over
// the new active set; the slot's hit-ratio window baseline starts at
// its current counters (zero for a fresh or reset tenant).
func (a *Arbiter) addTenant(slot, weight int, class SLOClass) {
	a.weights[slot] = weight
	a.classes[slot] = class
	a.isActive[slot] = true
	a.insertActive(slot)
	a.sumW += a.effWeight(slot)
	// A recycled slot's admission counters restart with its new tenant.
	a.denials[slot] = 0
	a.preemptions[slot] = 0
	c := a.m.TenantCounters(memsim.TenantID(slot))
	a.prevFast[slot], a.prevSlow[slot] = c.FastAccesses, c.SlowAccesses
	a.window[slot] = -1
	a.recomputeQuotas()
	a.refillBudgets()
}

// removeTenant deactivates a slot and redistributes its quota over the
// remaining active set.
func (a *Arbiter) removeTenant(slot int) {
	if !a.isActive[slot] {
		return
	}
	a.isActive[slot] = false
	a.sumW -= a.effWeight(slot)
	a.weights[slot] = 0
	a.classes[slot] = ClassBatch
	a.budget[slot] = 0
	a.staticQuota[slot] = 0
	a.quota[slot] = 0
	a.window[slot] = -1
	for i, s := range a.active {
		if s == slot {
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
	a.recomputeQuotas()
	a.refillBudgets()
}

// effWeight is slot's weight in the quota/budget splits: the configured
// weight, boosted for latency-SLO tenants.
func (a *Arbiter) effWeight(slot int) int {
	w := a.weights[slot]
	if a.classes[slot] == ClassLatency {
		w *= a.cfg.LatencyQuotaBoost
	}
	return w
}

func (a *Arbiter) insertActive(slot int) {
	i := len(a.active)
	for i > 0 && a.active[i-1] > slot {
		i--
	}
	a.active = append(a.active, 0)
	copy(a.active[i+1:], a.active[i:])
	a.active[i] = slot
}

// recomputeQuotas rebuilds the weighted static split over the active
// set: weighted shares with the integer-division remainder dealt out
// round-robin so the quotas sum exactly to capacity (a floor split
// would strand pages no tenant may use). When the active set is larger
// than the fast tier the per-tenant floor of one page wins and the sum
// exceeds capacity — physical capacity still gates allocation, quotas
// only cap individual tenants.
func (a *Arbiter) recomputeQuotas() {
	if a.cfg.Mode == ModeOff {
		return
	}
	n := len(a.active)
	if n == 0 {
		return
	}
	fastCap := a.m.CapacityPages(memsim.Fast)
	assigned := 0
	for _, s := range a.active {
		q := fastCap * a.effWeight(s) / a.sumW
		if q < 1 {
			q = 1
		}
		a.staticQuota[s] = q
		assigned += q
	}
	for i := 0; assigned < fastCap; i = (i + 1) % n {
		a.staticQuota[a.active[i]]++
		assigned++
	}
	for _, s := range a.active {
		a.quota[s] = a.staticQuota[s]
		a.m.SetFastQuota(memsim.TenantID(s), a.quota[s])
	}
}

// refillBudgets resets the per-tenant budgets and the batch pool to
// the weighted split of BandwidthPagesPerPeriod.
func (a *Arbiter) refillBudgets() {
	a.batchPool = 0
	for _, s := range a.active {
		b := a.cfg.BandwidthPagesPerPeriod * a.effWeight(s) / a.sumW
		if b < 1 {
			b = 1
		}
		a.budget[s] = b
		if a.classes[s] == ClassBatch {
			a.batchPool += b
		}
	}
}

// beginPeriod refills admission budgets and runs a dynamic rebalance
// when one is due. O(active tenants).
func (a *Arbiter) beginPeriod() {
	a.periods++
	a.refillBudgets()
	if a.cfg.Mode == ModeDynamic && a.periods%a.cfg.RebalancePeriods == 0 {
		a.rebalance()
	}
}

// admitPromotion consumes one unit of the tenant's promotion budget, or
// denies the promotion when it is spent. A latency-SLO tenant whose own
// budget is spent preempts the batch tenants' pooled budget; a batch
// tenant needs both its own budget and pool headroom, so a
// preempted batch tenant degrades to "denied this period" (the same
// graceful ErrTierFull path policies already handle) instead of
// erroring. Promotions for inactive (draining or empty) slots are
// always denied: a departing tenant must not grow its resident set.
func (a *Arbiter) admitPromotion(id memsim.TenantID) error {
	i := int(id)
	if !a.isActive[i] {
		a.denials[i]++
		return ErrAdmissionDenied
	}
	if !a.cfg.Admission {
		return nil
	}
	if a.classes[i] == ClassLatency {
		if a.budget[i] > 0 {
			a.budget[i]--
			return nil
		}
		if a.batchPool > 0 {
			a.batchPool--
			a.preemptions[i]++
			return nil
		}
	} else if a.budget[i] > 0 && a.batchPool > 0 {
		a.budget[i]--
		a.batchPool--
		return nil
	}
	a.denials[i]++
	return ErrAdmissionDenied
}

// rebalance moves one quota step from the active tenant with the
// highest windowed hit ratio to the one with the lowest. Ties break
// toward the lowest slot id, deterministically. Tenants with no window
// traffic are skipped (an idle tenant's ratio says nothing). One
// O(active) pass.
func (a *Arbiter) rebalance() {
	donor, receiver := -1, -1
	for _, i := range a.active {
		c := a.m.TenantCounters(memsim.TenantID(i))
		df := c.FastAccesses - a.prevFast[i]
		ds := c.SlowAccesses - a.prevSlow[i]
		a.prevFast[i], a.prevSlow[i] = c.FastAccesses, c.SlowAccesses
		if df+ds == 0 {
			a.window[i] = -1
			continue
		}
		a.window[i] = float64(df) / float64(df+ds)
		if donor < 0 || a.window[i] > a.window[donor] {
			donor = i
		}
		if receiver < 0 || a.window[i] < a.window[receiver] {
			receiver = i
		}
	}
	if donor < 0 || receiver < 0 || donor == receiver {
		return
	}
	if a.window[donor]-a.window[receiver] < a.cfg.DeadbandHitRatio {
		return
	}
	step := int(a.cfg.QuotaStepFrac * float64(a.m.CapacityPages(memsim.Fast)))
	if step < 1 {
		step = 1
	}
	floor := int(a.cfg.MinQuotaFrac * float64(a.staticQuota[donor]))
	if floor < 1 {
		floor = 1
	}
	if a.quota[donor]-step < floor {
		step = a.quota[donor] - floor
	}
	if step <= 0 {
		return
	}
	a.quota[donor] -= step
	a.quota[receiver] += step
	a.m.SetFastQuota(memsim.TenantID(donor), a.quota[donor])
	a.m.SetFastQuota(memsim.TenantID(receiver), a.quota[receiver])
	a.rebalances++
}

// Mode returns the arbiter's quota mode.
func (a *Arbiter) Mode() Mode { return a.cfg.Mode }

// AdmissionEnabled reports whether admission control is on.
func (a *Arbiter) AdmissionEnabled() bool { return a.cfg.Admission }

// Quota returns slot i's current fast-tier quota in pages (0 in
// ModeOff or for inactive slots: unlimited/none).
func (a *Arbiter) Quota(i int) int { return a.quota[i] }

// Denials returns how many promotions of slot i admission control has
// denied.
func (a *Arbiter) Denials(i int) uint64 { return a.denials[i] }

// Preemptions returns how many of slot i's promotions were admitted by
// preempting the batch tenants' pooled budget (latency-SLO slots only).
func (a *Arbiter) Preemptions(i int) uint64 { return a.preemptions[i] }

// Rebalances returns how many dynamic quota rebalances have executed.
func (a *Arbiter) Rebalances() uint64 { return a.rebalances }

// QuotaSum returns the sum of the active tenants' quotas — the
// invariant checked by the churn chaos suite: equal to fast-tier
// capacity whenever the active set fits (per-tenant floors can push it
// above capacity only when active tenants outnumber fast pages), and 0
// in ModeOff.
func (a *Arbiter) QuotaSum() int {
	s := 0
	for _, i := range a.active {
		s += a.quota[i]
	}
	return s
}
