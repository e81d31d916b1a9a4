// Command artmemd runs the online ArtMem system against a workload and
// serves the paper's §5 interaction channels over HTTP — the simulator's
// analogue of the kernel prototype's cgroup pseudo-files:
//
//	curl localhost:7600/memory.hit_ratio_show
//	curl localhost:7600/memory.action_show
//	curl localhost:7600/memory.threshold_show
//	curl localhost:7600/stats
//
// plus the telemetry surface:
//
//	curl localhost:7600/metrics            # Prometheus text format
//	curl localhost:7600/metrics.json       # JSON snapshot
//	curl localhost:7600/trace?n=100        # decision trace, JSONL
//	curl localhost:7600/qtable             # RL explainability report, JSON
//	curl localhost:7600/pagetrace?page=23  # page-lifecycle journal (needs -pagetrace)
//	go tool pprof localhost:7600/debug/pprof/profile
//
// Usage:
//
//	artmemd -workload XSBench -ratio 1:4 -listen :7600
//
// The workload replays in a loop until interrupted, so the agent keeps
// learning and the endpoints always show live state.
//
// Multi-tenant mode runs one tenant per listed workload — each a memcg
// analogue with its own RL agent — under the fast-tier arbiter, and
// serves the per-tenant control plane at /tenants:
//
//	artmemd -tenants SSSP,XSBench -arbiter dynamic -ratio 1:4
//	curl localhost:7600/tenants
//
// N-tier mode replays against a tier-chain machine (one RL agent per
// tier boundary) and serves the chain surface at /tiers:
//
//	artmemd -tiers DRAM:12.5%/CXL:25%/PM -nonexclusive -workload S2
//	curl localhost:7600/tiers
//
// The daemon is built to survive: SIGINT and SIGTERM drain the HTTP
// server with a timeout before stopping the system, worker goroutines
// recover from panics, and (with -checkpoint) the agent's Q-tables are
// checkpointed periodically and at shutdown so a restart resumes
// learning instead of starting cold.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/serve"
	"artmem/internal/telemetry"
	"artmem/internal/workloads"
)

// maxPostBody caps request bodies on the control-plane endpoints; no
// legitimate control request carries more than a few KB.
const maxPostBody = 1 << 20

// hardened wraps a control-plane handler with body-size enforcement:
// every request body is capped at maxPostBody, so a misbehaving client
// cannot buffer unbounded data into a POST endpoint.
func hardened(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxPostBody)
		}
		h.ServeHTTP(w, r)
	})
}

func main() {
	var (
		name      = flag.String("workload", "XSBench", "workload to drive the system with")
		ratio     = flag.String("ratio", "1:4", "DRAM:PM ratio")
		div       = flag.Int64("div", 256, "footprint divisor")
		acc       = flag.Int64("accesses", 3_000_000, "accesses per workload replay")
		listen    = flag.String("listen", "127.0.0.1:7600", "HTTP listen address")
		ckptPath  = flag.String("checkpoint", "", "Q-table snapshot path: restored at startup if present, saved periodically and at shutdown")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "interval between Q-table checkpoints")
		drain     = flag.Duration("shutdown-timeout", 5*time.Second, "HTTP drain timeout on SIGINT/SIGTERM")
		pagetrace = flag.Int("pagetrace", 0, "enable page-lifecycle tracing at 1-in-N page sampling (served at /pagetrace; 0 = off)")
		serveAddr = flag.String("serve", "", "listen address for the batched streaming access API (artload's target); empty = off")
		spanRate  = flag.Int("spans", 0, "latency span sampling: record 1-in-N accepted batches into the journal served at /spans (0 = off; needs -serve)")
		tiers     = flag.String("tiers", "", "tier chain spec for N-tier mode, e.g. DRAM:12.5%/CXL:25%/PM (one RL agent per boundary; serves /tiers)")
		nonExcl   = flag.Bool("nonexclusive", false, "N-tier mode: non-exclusive (Nomad-style) promotion, demotions discard onto clean shadow copies")
		bndBudget = flag.Int("boundary-budget", 0, "N-tier mode: migrations per boundary per decision period (0 = unmetered)")
		tenants   = flag.String("tenants", "", "comma-separated workload list for multi-tenant mode (one tenant + RL agent per workload; serves /tenants)")
		arbiter   = flag.String("arbiter", "dynamic", "multi-tenant fast-tier arbiter mode: off, static, or dynamic (quotas + admission control)")
		capacity  = flag.Int("capacity", 0, "multi-tenant slot capacity; 0 = number of listed tenants (extra slots admit runtime POST /register)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	mode := daemonMode(*tenants, *tiers)
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModeFlags(mode, set); err != nil {
		usageError(err)
	}
	fast, slow, err := parseRatio(*ratio)
	if err != nil {
		usageError(err)
	}
	if err := checkCounts(*div, *capacity, *bndBudget, *pagetrace, *spanRate); err != nil {
		usageError(err)
	}

	build := telemetry.ReadBuildInfo()
	if *version {
		fmt.Println("artmemd", build)
		return
	}

	prof := workloads.Profile{Div: *div, PatternAccesses: *acc, AppAccesses: *acc, Seed: 1}
	switch mode {
	case modeTenants:
		multiMain(*tenants, *arbiter, prof, fast, slow, *capacity, *listen, *serveAddr, *spanRate, *drain, build)
		return
	case modeTiers:
		tieredMain(*tiers, *nonExcl, *bndBudget, *name, prof, *listen, *drain, build)
		return
	}
	spec, err := workloads.ByName(*name)
	if err != nil {
		fatal(err)
	}
	// Size the machine from a probe instance of the workload.
	probe := spec.New(prof)
	foot := probe.FootprintBytes()
	probe.Close()
	mcfg := memsim.DefaultConfig(foot, ratioFastBytes(foot, prof.PageSize(), fast, slow), prof.PageSize())

	sys := core.NewSystem(core.SystemConfig{
		Machine:             mcfg,
		Policy:              core.Config{},
		SamplingInterval:    time.Millisecond,
		MigrationInterval:   10 * time.Millisecond,
		PageTraceSampleRate: *pagetrace,
	})
	// The Go runtime's own health (goroutines, heap, GC) rides along on
	// the same /metrics page as the simulator's.
	telemetry.RegisterRuntimeMetrics(sys.Telemetry().Registry)
	if *ckptPath != "" {
		switch err := sys.RestoreQTablesFile(*ckptPath); {
		case err == nil:
			fmt.Printf("artmemd: resumed Q-tables from %s\n", *ckptPath)
		case os.IsNotExist(err):
			fmt.Printf("artmemd: no checkpoint at %s, starting cold\n", *ckptPath)
		default:
			// A corrupt checkpoint must not kill the daemon: the restore
			// leaves the live tables untouched, so learning starts fresh.
			fmt.Fprintf(os.Stderr, "artmemd: ignoring unreadable checkpoint: %v\n", err)
		}
	}
	sys.Start()
	defer sys.Stop()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	mux := http.NewServeMux()
	mux.Handle("/", sys.ControlHandler())
	// Serving observability (span journal + SLO monitor) exists only
	// when the streaming access API is on; the endpoints 404 otherwise.
	var obs serveObs
	if *serveAddr != "" {
		obs = newServeObs(*spanRate, []telemetry.SLOObjective{telemetry.BatchSLO()})
	}
	obs.mount(mux)
	srv := serveHTTP(*listen, mux)

	// The batched streaming access API: remote clients (cmd/artload)
	// stream access/alloc/free batches at the machine alongside the local
	// replay loop.
	var accessSrv *serve.Server
	if *serveAddr != "" {
		accessSrv = serve.NewServer(serve.Config{
			Backend:  serve.NewSystemBackend(sys),
			Registry: sys.Telemetry().Registry,
			Spans:    obs.spans,
			StallNs:  sys.ControlBusyNs,
			SLO:      obs.slo,
		})
		go protect("serve", func() {
			if err := accessSrv.ListenAndServe(*serveAddr); err != nil {
				fatal(fmt.Errorf("serve: %w", err))
			}
		})
		fmt.Printf("artmemd: streaming access API on %s (drive it with artload)\n", *serveAddr)
		if obs.spans != nil {
			fmt.Printf("artmemd: latency spans on at 1/%d sampling (/spans); SLO burn rates at /slo\n",
				obs.spans.Rate())
		}
	}

	// Periodic Q-table checkpointing: a daemon restart resumes learning
	// from the last snapshot instead of re-exploring from scratch.
	ckptDone := make(chan struct{})
	if *ckptPath != "" && *ckptEvery > 0 {
		go protect("checkpoint", func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ckptDone:
					return
				case <-tick.C:
					if err := sys.SaveQTablesFile(*ckptPath); err != nil {
						fmt.Fprintf(os.Stderr, "artmemd: checkpoint failed: %v\n", err)
					}
				}
			}
		})
	}

	fmt.Printf("artmemd: build %s\n", build)
	fmt.Printf("artmemd: serving interaction channels on http://%s\n", *listen)
	fmt.Printf("artmemd: telemetry at /metrics, /metrics.json, /trace, /qtable; profiling at /debug/pprof/\n")
	if *pagetrace > 0 {
		fmt.Printf("artmemd: page-lifecycle tracing on at 1/%d sampling (/pagetrace)\n",
			sys.Telemetry().PageTrace.Rate())
	}
	fmt.Printf("artmemd: replaying %s (%d MB) at %s in a loop; SIGINT/SIGTERM to stop\n",
		*name, foot>>20, *ratio)

	if *acc <= 0 {
		// Serve-only mode: no local replay loop, all traffic arrives
		// through the streaming access API (or not at all).
		fmt.Println("artmemd: -accesses 0, serve-only mode (no local replay)")
		<-stop
	} else {
		replays := 0
	loop:
		for {
			if !replay(sys.Access, spec, prof, stop) {
				break loop
			}
			replays++
			c := sys.Counters()
			h := sys.Health()
			fmt.Printf("replay %d done: DRAM ratio %.3f, %d migrations, %d RL decisions, degraded=%v\n",
				replays, c.DRAMRatio(), c.Migrations, sys.Policy().Decisions(), h.Degraded)
		}
	}

	// Graceful shutdown: flip /healthz to draining (balancers stop
	// routing here), drain the streaming frontend (every accepted batch
	// acked or rejected) and in-flight HTTP requests with a deadline,
	// then stop the background threads and take a final checkpoint.
	sys.SetDraining(true)
	if accessSrv != nil {
		accessSrv.Shutdown()
	}
	shutdownHTTP(srv, *drain)
	close(ckptDone)
	sys.Stop()
	if *ckptPath != "" {
		if err := sys.SaveQTablesFile(*ckptPath); err != nil {
			fmt.Fprintf(os.Stderr, "artmemd: final checkpoint failed: %v\n", err)
		} else {
			fmt.Printf("artmemd: checkpointed Q-tables to %s\n", *ckptPath)
		}
	}
	fmt.Println("artmemd: stopped")
}

// serveHTTP serves the control-plane mux on listen from a protected
// goroutine, together with the standard pprof surface. The pprof
// handlers are registered explicitly (rather than importing
// net/http/pprof for its DefaultServeMux side effect) so the daemon
// never serves profiling endpoints it did not ask for.
func serveHTTP(listen string, mux *http.ServeMux) *http.Server {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{
		Addr:    listen,
		Handler: hardened(mux),
		// Bound how long a client may dribble its request headers; without
		// it an idle connection pins a goroutine forever (slowloris).
		ReadHeaderTimeout: 10 * time.Second,
	}
	go protect("http", func() {
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			fatal(err)
		}
	})
	return srv
}

// shutdownHTTP drains in-flight HTTP requests, giving up after drain.
func shutdownHTTP(srv *http.Server, drain time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "artmemd: http drain: %v\n", err)
	}
}

// replay runs one pass of the workload through access, returning false
// when a stop signal arrived. A panic inside the workload or the access
// path is recovered so one bad replay cannot take the daemon down.
func replay(access func(addr uint64, write bool), spec workloads.Spec, prof workloads.Profile, stop <-chan os.Signal) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "artmemd: replay panicked (recovered): %v\n", r)
			again = true
		}
	}()
	w := spec.New(prof)
	defer w.Close()
	for {
		b, ok := w.Next()
		if !ok {
			return true
		}
		for _, a := range b {
			access(a.Addr, a.Write)
		}
		select {
		case <-stop:
			return false
		default:
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "artmemd:", err)
	os.Exit(1)
}

// usageError reports a bad command line and exits 2, like flag.Parse.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "artmemd:", err)
	os.Exit(2)
}

// protect runs f, recovering and reporting a panic instead of crashing.
func protect(name string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "artmemd: %s goroutine panicked (recovered): %v\n", name, r)
		}
	}()
	f()
}
