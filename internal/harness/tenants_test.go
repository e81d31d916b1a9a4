package harness

import (
	"math"
	"reflect"
	"testing"

	"artmem/internal/core"
	"artmem/internal/faultinject"
	"artmem/internal/policies"
	"artmem/internal/tenancy"
	"artmem/internal/workloads"
)

// tenantSpecs builds a fresh three-tenant mix at test scale: two ArtMem
// agents and one MEMTIS baseline, weights by footprint. Workloads are
// single-use, so every run needs a fresh set.
func tenantSpecs(t *testing.T) ([]TenantSpec, int64) {
	t.Helper()
	prof := workloads.QuickProfile()
	names := []string{"XSBench", "SSSP", "YCSB"}
	specs := make([]TenantSpec, len(names))
	for i, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w := spec.New(prof)
		var pol policies.EnvPolicy
		if i == 2 {
			pol = policies.NewMEMTIS(policies.MEMTISConfig{})
		} else {
			pol = core.New(core.Config{Seed: uint64(i) + 1})
		}
		specs[i] = TenantSpec{
			Name:     name,
			Weight:   int(w.FootprintBytes() / prof.PageSize()),
			Workload: w,
			Policy:   pol,
		}
	}
	return specs, prof.PageSize()
}

func runTenantsOnce(t *testing.T, faults *faultinject.Config) Result {
	t.Helper()
	specs, pageSize := tenantSpecs(t)
	return RunTenants(specs, tenancy.ArbiterConfig{
		Mode:      tenancy.ModeDynamic,
		Admission: true,
	}, Config{
		PageSize:        pageSize,
		Ratio:           Ratio{Fast: 1, Slow: 4},
		Faults:          faults,
		CheckInvariants: true,
	})
}

// TestRunTenantsChaosAccountingInvariants is the tenancy property test:
// under injected migration failures, sampling outages, and bandwidth
// degradation, the per-tenant page accounting must stay consistent with
// the machine totals. CheckInvariants recounts (owner, tier) over all
// allocated pages every control period — any drift between tenant RSS
// and machine occupancy surfaces in Result.InvariantErr.
func TestRunTenantsChaosAccountingInvariants(t *testing.T) {
	res := runTenantsOnce(t, &faultinject.Config{
		Seed:               99,
		MigrationFailProb:  0.10,
		MigrationBurstMean: 3,
		SampleDropPeriodic: faultinject.Periodic{
			PeriodNs:   10_000_000,
			DurationNs: 2_000_000,
		},
	})
	if res.InvariantErr != nil {
		t.Fatalf("tenant accounting drifted under chaos: %v", res.InvariantErr)
	}
	if res.FaultStats.MigrationFailures == 0 {
		t.Fatal("chaos run injected no migration failures (schedule not live)")
	}
	checkTenantSums(t, res)
}

// TestRunTenantsFaultFree covers the same aggregation properties on a
// clean run, plus the per-tenant fields the fairness experiment reads.
func TestRunTenantsFaultFree(t *testing.T) {
	res := runTenantsOnce(t, nil)
	if res.InvariantErr != nil {
		t.Fatalf("invariants: %v", res.InvariantErr)
	}
	checkTenantSums(t, res)
	for _, tr := range res.Tenants {
		if tr.HitRatio < 0 || tr.HitRatio > 1 {
			t.Errorf("%s: hit ratio %v out of range", tr.Name, tr.HitRatio)
		}
		if tr.QuotaPages <= 0 {
			t.Errorf("%s: quota = %d under dynamic arbiter, want > 0", tr.Name, tr.QuotaPages)
		}
		if tr.AppNs <= 0 || tr.Accesses == 0 {
			t.Errorf("%s: no application time charged (AppNs=%v, accesses=%d)", tr.Name, tr.AppNs, tr.Accesses)
		}
	}
	if res.Workload != "XSBench+SSSP+YCSB" {
		t.Errorf("Workload = %q", res.Workload)
	}
	if res.Policy != "ArtMem+ArtMem+MEMTIS" {
		t.Errorf("Policy = %q (per-tenant policies should join)", res.Policy)
	}
}

// checkTenantSums verifies the per-tenant slices add up to the
// machine-wide result.
func checkTenantSums(t *testing.T, res Result) {
	t.Helper()
	var acc int64
	var fast, slow, promo, demo uint64
	for _, tr := range res.Tenants {
		acc += tr.Accesses
		fast += tr.FastAccesses
		slow += tr.SlowAccesses
		promo += tr.Promotions
		demo += tr.Demotions
	}
	if acc != res.Accesses {
		t.Errorf("tenant accesses sum to %d, run replayed %d", acc, res.Accesses)
	}
	if fast+slow != res.Misses {
		t.Errorf("tenant misses sum to %d, machine counted %d", fast+slow, res.Misses)
	}
	if promo != res.Promotions || demo != res.Demotions {
		t.Errorf("tenant migrations sum to %d+%d, machine counted %d+%d",
			promo, demo, res.Promotions, res.Demotions)
	}
}

// TestRunTenantsDeterministic pins the purity contract that lets the
// fairness experiment run through the sched cell cache: identical specs
// and config yield the identical Result, field for field.
func TestRunTenantsDeterministic(t *testing.T) {
	a := runTenantsOnce(t, nil)
	b := runTenantsOnce(t, nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical multi-tenant runs differ:\n%+v\n%+v", a, b)
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{0, 0}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{1, 3}, 0.8},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
