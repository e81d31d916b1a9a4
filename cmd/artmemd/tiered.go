package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/tier"
	"artmem/internal/workloads"
)

// tieredMain is the N-tier daemon mode (-tiers): the workload replays
// against a chain machine under core.TieredSystem — one RL agent per
// tier boundary — and the daemon serves the chain surface (/tiers,
// tier-labelled /metrics) that artmon's per-tier panel reads.
func tieredMain(chainSpec string, nonExclusive bool, budget int,
	name string, prof workloads.Profile, listen string, drain time.Duration,
	build telemetry.BuildInfo) {

	ch, err := tier.ParseChain(chainSpec)
	if err != nil {
		fatal(fmt.Errorf("bad -tiers %q: %w", chainSpec, err))
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		fatal(err)
	}
	probe := spec.New(prof)
	foot := probe.FootprintBytes()
	probe.Close()
	mcfg := memsim.DefaultConfig(foot, 0, prof.PageSize())
	mcfg.Chain = ch
	mcfg.NonExclusive = nonExclusive

	sys := core.NewTieredSystem(core.TieredSystemConfig{
		Machine:           mcfg,
		Policy:            core.Config{},
		SamplingInterval:  time.Millisecond,
		MigrationInterval: 10 * time.Millisecond,
		BoundaryBudget:    budget,
	})
	telemetry.RegisterRuntimeMetrics(sys.Telemetry().Registry)
	sys.Start()
	defer sys.Stop()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	mux := http.NewServeMux()
	mux.Handle("/", sys.ControlHandler())
	srv := serveHTTP(listen, mux)

	fmt.Printf("artmemd: build %s\n", build)
	fmt.Printf("artmemd: %d-tier chain %s (%d boundary agents, non-exclusive=%v)\n",
		len(ch), chainSpec, sys.NumBoundaries(), nonExclusive)
	fmt.Printf("artmemd: serving /tiers, /stats, /metrics, /healthz on http://%s; profiling at /debug/pprof/\n", listen)
	fmt.Printf("artmemd: replaying %s (%d MB) in a loop; SIGINT/SIGTERM to stop\n",
		name, foot>>20)

	replays := 0
loop:
	for {
		if !replay(sys.Access, spec, prof, stop) {
			break loop
		}
		replays++
		c := sys.Counters()
		fmt.Printf("replay %d done: DRAM ratio %.3f, %d migrations, %d shadow discards\n",
			replays, c.DRAMRatio(), c.Migrations, c.ShadowDiscards)
	}

	sys.SetDraining(true)
	shutdownHTTP(srv, drain)
	sys.Stop()
	fmt.Println("artmemd: stopped")
}
