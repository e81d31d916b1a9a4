package harness

import (
	"errors"
	"fmt"
	"sort"

	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/tenancy"
	"artmem/internal/workloads"
)

// ChurnClient is one short-lived tenant of a churn run: it arrives
// through the plane's admission control, replays its workload, and
// departs gracefully — unless an injected TenantCrash kills it first.
type ChurnClient struct {
	// Name labels the client; "" uses the workload name.
	Name string
	// Weight is the arbiter share; 0 means 1.
	Weight int
	// Class is the client's SLO class.
	Class tenancy.SLOClass
	// Workload is the client's trace; RunChurn closes it. Its footprint
	// must fit the spec's SlotBytes.
	Workload workloads.Workload
	// Policy manages the client's pages while it is resident.
	Policy policies.EnvPolicy
}

// ChurnSpec describes one churn run: a slot-limited plane that a queue
// of clients cycles through, optionally against a permanent antagonist.
type ChurnSpec struct {
	// Capacity is the plane's slot count.
	Capacity int
	// SlotBytes is the address region per slot; every client's footprint
	// must fit in it. The machine is sized Capacity*SlotBytes.
	SlotBytes int64
	// Clients is the arrival queue, admitted in order — one per control
	// period, more under an injected ArrivalBurst, fewer under
	// registration backpressure.
	Clients []ChurnClient
	// Antagonist, when non-nil, is registered first (slot 0) and never
	// departs or crashes: the permanent noisy neighbour every client
	// cohort contends with.
	Antagonist *ChurnClient
	// PeriodNs overrides the control-period length (arrival pacing,
	// crash rolls, budget refills, drain retries). 0 uses the fastest
	// policy interval in the spec — usually far too coarse for churn,
	// where many lifecycle events must fit one short run.
	PeriodNs int64
}

// ChurnStats aggregates a churn run's lifecycle outcomes (Result.Churn).
type ChurnStats struct {
	Capacity   int
	Clients    int
	Completed  int
	Crashed    int
	PeakActive int
	// Plane lifecycle counters at end of run.
	Registrations    uint64
	Deregistrations  uint64
	Throttled        uint64
	ReclaimRollbacks uint64
	PagesDrained     uint64
	PagesHandedOff   uint64
	// UnresolvedDrains counts slots still draining when the run ended
	// (possible only when reclamation faults never clear).
	UnresolvedDrains int
	// Unadmitted counts clients never admitted (plane wedged by
	// permanent reclamation faults).
	Unadmitted int
	// Per-class tails and fairness: mean reconstructed p99 access cost
	// and Jain's index over per-client cache-missing hit ratios, per SLO
	// class (zero/1 when the class is empty). Caveat: when placement is
	// so good that a class's clients barely miss the CPU cache, the hit
	// ratio's denominator shrinks to a handful of warm-up misses and its
	// Jain turns noisy — read it together with the class's mean p99.
	LatencyP99Ns float64
	BatchP99Ns   float64
	JainLatency  float64
	JainBatch    float64
}

// churnRun carries one client's in-flight replay state.
type churnRun struct {
	client int // index into results rows
	w      workloads.Workload
	pol    policies.EnvPolicy
	batch  []workloads.Access
	pos    int
	next   int64 // next policy tick
	intv   int64
}

// churnChunk is the number of accesses one scheduling turn replays per
// resident tenant, bounding how long any tenant runs between lifecycle
// events.
const churnChunk = 512

// RunChurn replays a churn schedule: clients arrive through admission
// control, run time-sliced against each other (and the antagonist),
// depart through transactional reclamation, and die to injected
// TenantCrash faults with their pages drained or handed off to the
// antagonist. The run is synchronous and goroutine-free and honours
// Run's purity contract — identical spec identities, arbiter config,
// and Config yield a bit-identical Result — so churn cells memoize and
// parallelize through the sched grid like any other cell.
//
// With cfg.CheckInvariants set, the machine's page accounting, the
// per-tenant RSS sum, and the arbiter's quota sum are re-verified after
// every lifecycle event (registration, departure, crash, rollback,
// retry); the first violation lands in Result.InvariantErr.
func RunChurn(spec ChurnSpec, acfg tenancy.ArbiterConfig, cfg Config) Result {
	if spec.Capacity < 1 {
		panic("harness: RunChurn needs capacity >= 1")
	}
	if spec.SlotBytes <= 0 {
		panic("harness: RunChurn needs SlotBytes > 0")
	}
	defer func() {
		for _, c := range spec.Clients {
			c.Workload.Close()
		}
		if spec.Antagonist != nil {
			spec.Antagonist.Workload.Close()
		}
	}()

	m, inj, cfg := buildMachine(int64(spec.Capacity)*spec.SlotBytes, cfg)
	plane := tenancy.NewDynamicPlane(m, spec.Capacity, acfg)

	// Result rows: antagonist first (it registers first), then every
	// client in arrival order — admitted or not.
	nRows := len(spec.Clients)
	antRow := -1
	if spec.Antagonist != nil {
		antRow = 0
		nRows++
	}
	run := newReplayRun(m, inj, cfg,
		fmt.Sprintf("churn[%d clients/cap %d]", len(spec.Clients), spec.Capacity),
		churnPolicyName(spec))
	run.check = func() error { return churnInvariants(m, plane) }
	res := &run.res
	res.Tenants = make([]TenantResult, nRows)
	churn := &ChurnStats{Capacity: spec.Capacity, Clients: len(spec.Clients)}
	res.Churn = churn

	// The control period is the fastest policy interval in the spec.
	ctlInterval := int64(policies.DefaultTickInterval)
	each := func(c *ChurnClient) {
		if iv := c.Policy.Interval(); iv > 0 && iv < ctlInterval {
			ctlInterval = iv
		}
	}
	for i := range spec.Clients {
		each(&spec.Clients[i])
	}
	if spec.Antagonist != nil {
		each(spec.Antagonist)
	}
	if spec.PeriodNs > 0 {
		ctlInterval = spec.PeriodNs
	}

	slotRun := make([]*churnRun, spec.Capacity)
	// replaying is the slot currently mid-batch, excluded from crash
	// victim selection (killing the tenant whose accesses are being
	// replayed would let a dead tenant keep allocating).
	replaying := -1
	rowOf := func(client int) int { // client index -> result row
		if antRow >= 0 {
			return client + 1
		}
		return client
	}

	admit := func(client int, c *ChurnClient) (int, error) {
		if c.Workload.FootprintBytes() > spec.SlotBytes {
			panic(fmt.Sprintf("harness: churn client %q footprint %d > SlotBytes %d",
				c.Name, c.Workload.FootprintBytes(), spec.SlotBytes))
		}
		name := c.Name
		if name == "" {
			name = c.Workload.Name()
		}
		slot, err := plane.Register(tenancy.Tenant{Name: name, Weight: c.Weight, Class: c.Class})
		if err != nil {
			return -1, err
		}
		c.Policy.AttachEnv(plane.View(slot))
		iv := c.Policy.Interval()
		if iv <= 0 {
			iv = policies.DefaultTickInterval
		}
		slotRun[slot] = &churnRun{
			client: client, w: c.Workload, pol: c.Policy,
			next: m.Now() + iv, intv: iv,
		}
		row := antRow
		if client >= 0 {
			row = rowOf(client)
		}
		res.Tenants[row] = TenantResult{
			Name:   name,
			Weight: c.Weight,
			Class:  c.Class.String(),
		}
		run.verify()
		return slot, nil
	}

	// snapshot records the departing/crashed tenant's final counters
	// into its result row — before reclamation zeroes them.
	arb := plane.Arbiter()
	snapshot := func(slot, row int, completed, crashed bool) {
		tc := m.TenantCounters(memsim.TenantID(slot))
		tr := &res.Tenants[row]
		tr.FastAccesses = tc.FastAccesses
		tr.SlowAccesses = tc.SlowAccesses
		tr.HitRatio = tc.DRAMRatio()
		tr.AppNs = tc.AppNs
		tr.FastPages = m.TenantUsedPages(memsim.TenantID(slot), memsim.Fast)
		tr.QuotaPages = arb.Quota(slot)
		tr.Promotions = tc.Promotions
		tr.Demotions = tc.Demotions
		tr.AdmissionDenials = arb.Denials(slot)
		tr.Preemptions = arb.Preemptions(slot)
		tr.Completed = completed
		tr.Crashed = crashed
		tr.P99Ns = p99Cost(m, tc)
	}

	pending := 0 // next client to admit
	antSlot := -1
	if spec.Antagonist != nil {
		slot, err := admit(-1, spec.Antagonist)
		if err != nil {
			panic("harness: antagonist registration failed: " + err.Error())
		}
		antSlot = slot
	}
	// Initial cohort: fill the plane before time starts (initial
	// registrations are exempt from arrival backpressure).
	for pending < len(spec.Clients) {
		if _, err := admit(pending, &spec.Clients[pending]); err != nil {
			break
		}
		pending++
	}

	crashes := 0
	victimCursor := 0
	// depart finishes slot's tenant: snapshot, then drain (or hand off
	// to the antagonist for odd-numbered crashes). An interrupted
	// reclamation leaves the slot draining; RetryDrains picks it up.
	depart := func(slot int, crashed bool) {
		r := slotRun[slot]
		completed := !crashed
		snapshot(slot, rowOf(r.client), completed, crashed)
		if completed {
			churn.Completed++
		} else {
			churn.Crashed++
		}
		handoff := -1
		var err error
		if crashed {
			if crashes%2 == 1 && antSlot >= 0 {
				handoff = antSlot
			}
			crashes++
			err = plane.Crash(slot, handoff)
		} else {
			err = plane.Deregister(slot, handoff)
		}
		if err != nil && !errors.Is(err, tenancy.ErrReclaimInterrupted) {
			panic("harness: churn departure failed: " + err.Error())
		}
		r.w.Close()
		slotRun[slot] = nil
		run.verify()
	}

	nextCtl := ctlInterval
	lifecycle := func(now int64) {
		plane.BeginPeriod()
		plane.RetryDrains()
		run.verify()
		// Injected tenant crash: kill one resident client (never the
		// antagonist, never the slot being replayed — callers pass it
		// via victimExempt below).
		if inj != nil && inj.CrashTenant(now) {
			for probe := 0; probe < spec.Capacity; probe++ {
				v := (victimCursor + probe) % spec.Capacity
				if v == antSlot || v == replaying || slotRun[v] == nil {
					continue
				}
				victimCursor = v + 1
				depart(v, true)
				break
			}
		}
		// Arrivals: one per period, plus any injected burst, all subject
		// to the plane's backpressure.
		arrivals := 1
		if inj != nil {
			arrivals += inj.ArrivalBurst(now)
		}
		for i := 0; i < arrivals && pending < len(spec.Clients); i++ {
			if _, err := admit(pending, &spec.Clients[pending]); err != nil {
				break // full or throttled; retry next period
			}
			pending++
		}
		if a := plane.ActiveTenants(); a > churn.PeakActive {
			churn.PeakActive = a
		}
		// Policy ticks for every resident tenant that is due.
		for slot := 0; slot < spec.Capacity; slot++ {
			if r := slotRun[slot]; r != nil && now >= r.next {
				r.pol.Tick(now)
				res.Ticks++
				r.next = now + r.intv
			}
		}
		nextCtl = now + ctlInterval
	}

	idleRounds := 0
	for {
		progressed := false
		for slot := 0; slot < spec.Capacity; slot++ {
			r := slotRun[slot]
			if r == nil {
				continue
			}
			if r.pos >= len(r.batch) {
				batch, ok := r.w.Next()
				if !ok {
					if slot == antSlot {
						// The antagonist stays registered (its residency
						// keeps pressuring the arbiter); it just goes idle.
						slotRun[slot] = nil
					} else {
						depart(slot, false)
					}
					continue
				}
				r.batch, r.pos = batch, 0
			}
			end := r.pos + churnChunk
			if end > len(r.batch) {
				end = len(r.batch)
			}
			m.SetCurrentTenant(memsim.TenantID(slot))
			replaying = slot
			off := uint64(slot) * uint64(spec.SlotBytes)
			for _, acc := range r.batch[r.pos:end] {
				m.Access(acc.Addr+off, acc.Write)
				if m.Now() >= nextCtl {
					lifecycle(m.Now())
				}
			}
			replaying = -1
			n := end - r.pos
			r.pos = end
			res.Accesses += int64(n)
			row := rowOf(r.client)
			if r.client < 0 {
				row = antRow
			}
			res.Tenants[row].Accesses += int64(n)
			progressed = true
		}
		if progressed {
			idleRounds = 0
			continue
		}
		// No resident tenant replayed anything: either we are done, or
		// arrivals/drains are blocked. Run lifecycle steps off the clock
		// to unwedge; give up after a bound so permanently failing
		// reclamation faults cannot hang the run.
		busy := pending < len(spec.Clients)
		for slot := 0; slot < spec.Capacity && !busy; slot++ {
			if slotRun[slot] != nil && slot != antSlot {
				busy = true
			}
		}
		draining := 0
		for slot := 0; slot < spec.Capacity; slot++ {
			if plane.State(slot) == tenancy.StateDraining {
				draining++
			}
		}
		if !busy && draining == 0 {
			break
		}
		if idleRounds++; idleRounds > 4*spec.Capacity+100 {
			churn.UnresolvedDrains = draining
			churn.Unadmitted = len(spec.Clients) - pending
			break
		}
		lifecycle(m.Now())
	}

	// The antagonist never departs; snapshot it in place.
	if antSlot >= 0 {
		snapshot(antSlot, antRow, true, false)
	}
	res.ArbiterRebalances = arb.Rebalances()

	st := plane.Stats()
	churn.Registrations = st.Registrations
	churn.Deregistrations = st.Deregistrations
	churn.Throttled = st.RegistrationsThrottled
	churn.ReclaimRollbacks = st.ReclaimRollbacks
	churn.PagesDrained = st.PagesDrained
	churn.PagesHandedOff = st.PagesHandedOff
	churnClassSummary(res.Tenants, antRow, churn)
	return run.finish()
}

// churnInvariants checks the machine's accounting plus the tenancy
// cross-invariants: per-tenant RSS sums to machine RSS, and the active
// quota sum covers the fast tier (static/dynamic modes).
func churnInvariants(m *memsim.Machine, p *tenancy.Plane) error {
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	var sum int
	for i := 0; i < p.Capacity(); i++ {
		sum += m.TenantUsedPages(memsim.TenantID(i), memsim.Fast) +
			m.TenantUsedPages(memsim.TenantID(i), memsim.Slow)
	}
	if total := m.UsedPages(memsim.Fast) + m.UsedPages(memsim.Slow); sum != total {
		return fmt.Errorf("harness: tenant RSS sum %d != machine RSS %d", sum, total)
	}
	if p.Arbiter().Mode() != tenancy.ModeOff && p.ActiveTenants() > 0 {
		fastCap := m.CapacityPages(memsim.Fast)
		want := fastCap
		if n := p.ActiveTenants(); n > fastCap {
			want = n // per-tenant floor of 1 can exceed capacity
		}
		if got := p.Arbiter().QuotaSum(); got < want {
			return fmt.Errorf("harness: active quota sum %d < %d (fast tier stranded)", got, want)
		}
	}
	return nil
}

// p99Cost reconstructs a tenant's tail access cost from its discrete
// access-outcome distribution: every access cost one of the machine's
// cache-hit, fast-read, or slow-read constants (write costs are folded
// into their tier's read bucket — the tail tier is what matters). The
// statistic is the mean cost of the slowest 1% of accesses (the p99
// tail mean): unlike the raw discrete percentile, which can only ever
// be one of the three constants, it is continuous in the slow-access
// fraction, so shaving slow accesses off a tenant's tail always moves
// it. Returns 0 for a tenant with no accesses.
func p99Cost(m *memsim.Machine, tc memsim.TenantCounters) float64 {
	type bucket struct {
		cost float64
		n    uint64
	}
	bs := []bucket{
		{m.Config().CacheHitNs, tc.CacheHits},
		{m.ReadCostNs(memsim.Fast), tc.FastAccesses},
		{m.ReadCostNs(memsim.Slow), tc.SlowAccesses},
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].cost > bs[j].cost })
	var total uint64
	for _, b := range bs {
		total += b.n
	}
	if total == 0 {
		return 0
	}
	tail := total / 100
	if tail == 0 {
		tail = 1
	}
	var costSum float64
	remaining := tail
	for _, b := range bs {
		n := b.n
		if n > remaining {
			n = remaining
		}
		costSum += float64(n) * b.cost
		remaining -= n
		if remaining == 0 {
			break
		}
	}
	return costSum / float64(tail)
}

// churnClassSummary fills the per-class aggregates: mean p99 and Jain's
// index over hit ratios, per SLO class, over the client rows (the
// antagonist row is excluded — it is infrastructure, not a client).
func churnClassSummary(rows []TenantResult, antRow int, churn *ChurnStats) {
	var latP99, batP99 []float64
	var latHit, batHit []float64
	for i, r := range rows {
		if i == antRow || r.Accesses == 0 {
			continue
		}
		if r.Class == "latency" {
			latP99 = append(latP99, r.P99Ns)
			latHit = append(latHit, r.HitRatio)
		} else {
			batP99 = append(batP99, r.P99Ns)
			batHit = append(batHit, r.HitRatio)
		}
	}
	churn.LatencyP99Ns = meanOf(latP99)
	churn.BatchP99Ns = meanOf(batP99)
	churn.JainLatency = JainIndex(latHit)
	churn.JainBatch = JainIndex(batHit)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// churnPolicyName mirrors tenantPolicyName over a churn spec.
func churnPolicyName(spec ChurnSpec) string {
	if len(spec.Clients) == 0 {
		if spec.Antagonist != nil {
			return spec.Antagonist.Policy.Name()
		}
		return "none"
	}
	first := spec.Clients[0].Policy.Name()
	for _, c := range spec.Clients[1:] {
		if c.Policy.Name() != first {
			return "mixed"
		}
	}
	return first
}
