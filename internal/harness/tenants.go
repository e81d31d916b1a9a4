package harness

import (
	"strings"

	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/tenancy"
	"artmem/internal/workloads"
)

// TenantSpec describes one tenant of a multi-tenant run: its workload,
// its policy (attached to a tenant-scoped view, so per-tenant ArtMem
// agents and per-tenant baselines both work), and its arbiter weight.
type TenantSpec struct {
	// Name labels the tenant; "" uses the workload name.
	Name string
	// Weight is the tenant's fast-tier and bandwidth share; 0 means 1.
	Weight int
	// Workload is the tenant's access trace; RunTenants closes it.
	Workload workloads.Workload
	// Policy manages the tenant's pages. Any EnvPolicy works:
	// core.ArtMem and every baseline in internal/policies.
	Policy policies.EnvPolicy
}

// TenantResult is one tenant's slice of a multi-tenant Result.
type TenantResult struct {
	Name   string
	Weight int
	// Accesses is the tenant's replayed trace length; FastAccesses and
	// SlowAccesses its cache-missing splits, and HitRatio the
	// fast-tier share (the per-tenant DRAM access ratio).
	Accesses     int64
	FastAccesses uint64
	SlowAccesses uint64
	HitRatio     float64
	// AppNs is application time charged while the tenant ran; the
	// tenant's throughput is Accesses/AppNs.
	AppNs float64
	// FastPages is the tenant's final fast-tier residency; QuotaPages
	// its final arbiter quota (0 = unlimited).
	FastPages  int
	QuotaPages int
	// Migration activity and admission-control denials.
	Promotions       uint64
	Demotions        uint64
	AdmissionDenials uint64

	// Churn-run fields (RunChurn); zero-valued for RunTenants rows.
	// Class is the SLO class name ("batch"/"latency"); Completed is
	// false when the tenant crashed before finishing its trace; P99Ns is
	// the tenant's reconstructed 99th-percentile access cost;
	// Preemptions counts batch-pool budget the tenant preempted.
	Class       string
	Completed   bool
	Crashed     bool
	P99Ns       float64
	Preemptions uint64
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) over the
// values, in (0,1]; 1 is perfectly fair. Degenerate all-zero input
// reports 1.
func JainIndex(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RunTenants replays N tenant workloads concurrently on one machine
// under the tenancy control plane and returns a Result whose Tenants
// field carries the per-tenant breakdown. Concurrency is simulated the
// way workloads.Mixed does — round-robin batch interleaving with each
// tenant's addresses offset into its own region — but every tenant
// keeps its own identity: the machine charges accesses to the current
// tenant, first touch assigns ownership, and each policy sees only its
// tenant's world through the plane's views.
//
// The run is synchronous and goroutine-free, so it honours the same
// purity contract as Run: identical (specs identities, arbiter config,
// Config) always yield the identical Result, bit for bit, which is
// what lets the fairness experiment run through the sched cell grid.
func RunTenants(specs []TenantSpec, acfg tenancy.ArbiterConfig, cfg Config) Result {
	if len(specs) == 0 {
		panic("harness: RunTenants needs at least one tenant")
	}
	defer func() {
		for _, s := range specs {
			s.Workload.Close()
		}
	}()

	var foot int64
	offsets := make([]uint64, len(specs))
	tenants := make([]tenancy.Tenant, len(specs))
	for i, s := range specs {
		offsets[i] = uint64(foot)
		foot += s.Workload.FootprintBytes()
		name := s.Name
		if name == "" {
			name = s.Workload.Name()
		}
		tenants[i] = tenancy.Tenant{Name: name, Weight: s.Weight}
	}

	m, inj, cfg := buildMachine(foot, cfg)
	plane := tenancy.NewPlane(m, tenants, acfg)
	intervals := make([]int64, len(specs))
	// The control period (arbiter budget refill + rebalance cadence) is
	// the fastest policy interval.
	var ctlInterval int64
	for i, s := range specs {
		s.Policy.AttachEnv(plane.View(i))
		intervals[i] = s.Policy.Interval()
		if intervals[i] <= 0 {
			intervals[i] = policies.DefaultTickInterval
		}
		if ctlInterval == 0 || intervals[i] < ctlInterval {
			ctlInterval = intervals[i]
		}
	}

	r := newReplayRun(m, inj, cfg, tenantNames(tenants), tenantPolicyName(specs))
	next := make([]int64, len(specs))
	for i := range next {
		next[i] = intervals[i]
	}
	nextCtl := ctlInterval
	perTenantAccesses := make([]int64, len(specs))

	done := make([]bool, len(specs))
	live := len(specs)
	turn := 0
	for live > 0 {
		i := turn
		turn = (turn + 1) % len(specs)
		if done[i] {
			continue
		}
		batch, ok := specs[i].Workload.Next()
		if !ok {
			done[i] = true
			live--
			continue
		}
		m.SetCurrentTenant(memsim.TenantID(i))
		off := offsets[i]
		for _, acc := range batch {
			m.Access(acc.Addr+off, acc.Write)
			if m.Now() >= nextCtl {
				now := m.Now()
				plane.BeginPeriod()
				for j := range specs {
					if now >= next[j] {
						specs[j].Policy.Tick(now)
						r.res.Ticks++
						next[j] = now + intervals[j]
					}
				}
				nextCtl = now + ctlInterval
				r.period(now)
			}
		}
		r.res.Accesses += int64(len(batch))
		perTenantAccesses[i] += int64(len(batch))
	}

	res := r.finish()
	arb := plane.Arbiter()
	res.ArbiterRebalances = arb.Rebalances()
	res.Tenants = make([]TenantResult, len(specs))
	for i := range specs {
		tc := m.TenantCounters(memsim.TenantID(i))
		res.Tenants[i] = TenantResult{
			Name:             tenants[i].Name,
			Weight:           tenants[i].Weight,
			Accesses:         perTenantAccesses[i],
			FastAccesses:     tc.FastAccesses,
			SlowAccesses:     tc.SlowAccesses,
			HitRatio:         tc.DRAMRatio(),
			AppNs:            tc.AppNs,
			FastPages:        m.TenantUsedPages(memsim.TenantID(i), memsim.Fast),
			QuotaPages:       arb.Quota(i),
			Promotions:       tc.Promotions,
			Demotions:        tc.Demotions,
			AdmissionDenials: arb.Denials(i),
		}
	}
	return res
}

// tenantNames joins tenant names as "A+B+C".
func tenantNames(ts []tenancy.Tenant) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return strings.Join(names, "+")
}

// tenantPolicyName reports the shared policy name when every tenant
// runs the same policy, or the per-tenant names joined with "+".
func tenantPolicyName(specs []TenantSpec) string {
	first := specs[0].Policy.Name()
	same := true
	for _, s := range specs[1:] {
		if s.Policy.Name() != first {
			same = false
			break
		}
	}
	if same {
		return first
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Policy.Name()
	}
	return strings.Join(names, "+")
}
