// Mixed concurrent workloads on the multi-tenant ArtMem runtime: SSSP
// and XSBench run as two tenants — two memcg analogues — of one
// core.MultiSystem. Each tenant gets its own RL agent attached to a
// tenant-scoped machine view, the fast tier is partitioned by the
// arbiter's weighted quotas, and admission control meters both tenants'
// promotion traffic; the shared background threads (§4.4) sample and
// migrate for both. The periodic report shows each tenant's hit ratio
// and fast-tier occupancy converging under its own agent.
//
//	go run ./examples/mixedworkload
package main

import (
	"fmt"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/tenancy"
	"artmem/internal/workloads"
)

func main() {
	prof := workloads.Profile{
		Div:             256,
		AppAccesses:     3_000_000,
		PatternAccesses: 3_000_000,
		Seed:            1,
	}
	names := []string{"SSSP", "XSBench"}
	loads := make([]workloads.Workload, len(names))
	offsets := make([]uint64, len(names))
	tenants := make([]core.TenantConfig, len(names))
	var foot int64
	for i, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		loads[i] = spec.New(prof)
		defer loads[i].Close()
		// Each tenant's addresses land in its own region of the shared
		// machine, as two processes would.
		offsets[i] = uint64(foot)
		foot += loads[i].FootprintBytes()
		tenants[i] = core.TenantConfig{
			Name:   name,
			Weight: int(loads[i].FootprintBytes() / prof.PageSize()),
			Policy: core.Config{Seed: prof.Seed + uint64(i)},
		}
	}

	mcfg := memsim.DefaultConfig(foot, foot/3, prof.PageSize())
	sys := core.NewMultiSystem(core.MultiSystemConfig{
		Machine: mcfg,
		Tenants: tenants,
		Arbiter: tenancy.ArbiterConfig{
			Mode:      tenancy.ModeDynamic,
			Admission: true,
		},
		SamplingInterval:  time.Millisecond,
		MigrationInterval: 5 * time.Millisecond,
	})
	sys.Start()
	defer sys.Stop()

	fmt.Printf("tenants %s+%s: %d MB footprint, %d MB DRAM, arbiter %s\n\n",
		names[0], names[1], foot>>20,
		int64(mcfg.Chain[memsim.Fast].CapacityPages)*mcfg.PageSize>>20,
		sys.Plane().Arbiter().Mode())
	fmt.Println("wall time   tenant    accesses   hit ratio   fast pages   quota   denied")

	start := time.Now()
	lastReport := start
	report := func() {
		rep := sys.TenantsReport()
		for _, t := range rep.Tenants {
			fmt.Printf("%8s   %-8s %9d       %.3f      %7d   %5d   %6d\n",
				time.Since(start).Round(100*time.Millisecond), t.Name,
				t.FastAccesses+t.SlowAccesses, t.HitRatio,
				t.FastPages, t.QuotaPages, t.AdmissionDenials)
		}
	}

	// Replay both tenants round-robin, a batch at a time, until both
	// traces end.
	done := make([]bool, len(names))
	live := len(names)
	for turn := 0; live > 0; turn = (turn + 1) % len(names) {
		if done[turn] {
			continue
		}
		batch, ok := loads[turn].Next()
		if !ok {
			done[turn] = true
			live--
			continue
		}
		addrs := make([]uint64, len(batch))
		writes := make([]bool, len(batch))
		for i, a := range batch {
			addrs[i] = a.Addr + offsets[turn]
			writes[i] = a.Write
		}
		sys.AccessBatch(turn, addrs, writes)
		if time.Since(lastReport) >= 200*time.Millisecond {
			report()
			lastReport = time.Now()
		}
	}

	c := sys.Counters()
	fmt.Printf("\nfinished: %.1f ms virtual time, overall DRAM ratio %.3f, %d migrations\n",
		float64(sys.Now())/1e6, c.DRAMRatio(), c.Migrations)
	report()
}
