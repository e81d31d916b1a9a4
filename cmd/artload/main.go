// Command artload is the load generator for artmemd's batched
// streaming access API (-serve): it replays internal/workloads traces
// from N concurrent clients, each streaming windowed batches over the
// serve wire protocol, and reports throughput and end-to-end batch
// latency percentiles.
//
// Against a live daemon:
//
//	artmemd -workload YCSB -serve 127.0.0.1:7700
//	artload -addr 127.0.0.1:7700 -clients 64 -workload YCSB
//
// Multi-tenant (clients round-robin the first -tenants slots):
//
//	artmemd -tenants SSSP,XSBench -serve 127.0.0.1:7700
//	artload -addr 127.0.0.1:7700 -clients 8 -tenants 2
//
// Self-contained smoke test (in-process server, no daemon):
//
//	artload -loopback -clients 8
//
// With -json the run ledger is printed as one JSON object (all
// progress chatter moves to stderr), so CI and scripts consume the
// outcome without scraping text. Loopback runs can additionally record
// latency spans (-spans N) and drain the observability surfaces to
// files (-spans-out, -slo-out) — the same JSONL and JSON payloads a
// daemon serves at /spans and /slo.
//
// The exit status is non-zero if any batch was lost (sent but never
// acked or rejected) or any client failed — the zero-loss serving
// contract is what CI's loadtest step pins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"artmem/internal/serve"
)

// ledger is the -json output: the full load report plus the run's
// identifying parameters, one object on stdout.
type ledger struct {
	Addr     string `json:"addr"`
	Loopback bool   `json:"loopback"`
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`
	Window   int    `json:"window"`
	Seed     uint64 `json:"seed"`
	serve.Report
	Error string `json:"error,omitempty"`
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7700", "serve API address of a running artmemd")
		loopback = flag.Bool("loopback", false, "start an in-process single-tenant server and drive that instead of -addr")
		clients  = flag.Int("clients", 8, "concurrent client streams")
		workload = flag.String("workload", "YCSB", "workload trace each client replays (per-client decorrelated seeds)")
		div      = flag.Int64("div", 256, "workload footprint divisor")
		accesses = flag.Int64("accesses", 200_000, "accesses per client")
		batch    = flag.Int("batch", 4096, "records per batch frame")
		window   = flag.Int("window", 8, "in-flight batches per client")
		seed     = flag.Uint64("seed", 1, "base trace seed")
		tenant   = flag.Int("tenant", 0, "tenant slot to drive (multi-tenant daemons)")
		tenants  = flag.Int("tenants", 0, "round-robin clients over this many tenant slots (overrides -tenant; 0 = off)")
		retry    = flag.Bool("retry", false, "retry batches shed by backpressure until applied")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-client idle timeout waiting for server frames")
		queue    = flag.Int("queue", 0, "loopback server queue bound in records (0 = server default)")
		spanRate = flag.Int("spans", 0, "loopback latency span sampling, 1-in-N accepted batches (0 = off; enables the stages line and -spans-out)")
		spansOut = flag.String("spans-out", "", "write the loopback span journal drain (JSONL, the /spans payload) to this file")
		sloOut   = flag.String("slo-out", "", "write the loopback SLO burn-rate report (JSON, the /slo payload) to this file")
		jsonOut  = flag.Bool("json", false, "print the run ledger as one JSON object on stdout (progress goes to stderr)")
	)
	flag.Parse()
	if err := checkCounts(*div, *accesses, *clients, *batch, *window, *tenant, *tenants, *queue, *spanRate); err != nil {
		fmt.Fprintln(os.Stderr, "artload:", err)
		os.Exit(2)
	}

	// In -json mode stdout carries exactly one JSON object; everything
	// conversational goes to stderr.
	chat := os.Stdout
	if *jsonOut {
		chat = os.Stderr
	}

	cfg := serve.LoadConfig{
		Addr:        *addr,
		Tenant:      uint32(*tenant),
		Clients:     *clients,
		Workload:    *workload,
		Div:         *div,
		Accesses:    *accesses,
		Batch:       *batch,
		Window:      *window,
		Seed:        *seed,
		Retry:       *retry,
		IdleTimeout: *timeout,
	}
	if *tenants > 0 {
		n := uint32(*tenants)
		cfg.TenantOf = func(client int) uint32 { return uint32(client) % n }
	}

	var lb *serve.Loopback
	if *loopback {
		var err error
		lb, err = serve.StartLoopbackCfg(serve.LoopbackConfig{
			Workload:     *workload,
			Div:          *div,
			QueueRecords: *queue,
			SpanRate:     *spanRate,
		})
		if err != nil {
			fatal(err)
		}
		defer lb.Stop()
		cfg.Addr = lb.Addr()
		fmt.Fprintf(chat, "artload: loopback server on %s (%s, div %d)\n", lb.Addr(), *workload, *div)
	} else if *spanRate > 0 || *spansOut != "" || *sloOut != "" {
		fatal(fmt.Errorf("-spans, -spans-out, and -slo-out need -loopback (drain a daemon's /spans and /slo over HTTP instead)"))
	}

	fmt.Fprintf(chat, "artload: %d clients x %d accesses of %s against %s (batch %d, window %d)\n",
		*clients, *accesses, *workload, cfg.Addr, *batch, *window)
	rep, err := serve.Run(cfg)

	if lb != nil {
		if lb.Spans != nil {
			rep.Stages = serve.StageBreakdownOf(lb.Spans.Spans(0))
		}
		if *spansOut != "" {
			if werr := writeFile(*spansOut, func(f *os.File) error {
				if lb.Spans == nil {
					return fmt.Errorf("span journal off (set -spans N)")
				}
				return lb.Spans.WriteJSONL(f, 0, -1)
			}); werr != nil {
				fatal(fmt.Errorf("-spans-out: %w", werr))
			}
		}
		if *sloOut != "" {
			if werr := writeFile(*sloOut, func(f *os.File) error {
				return lb.SLO.WriteJSON(f)
			}); werr != nil {
				fatal(fmt.Errorf("-slo-out: %w", werr))
			}
		}
	}

	if *jsonOut {
		led := ledger{
			Addr:     cfg.Addr,
			Loopback: *loopback,
			Workload: *workload,
			Batch:    *batch,
			Window:   *window,
			Seed:     *seed,
			Report:   rep,
		}
		if err != nil {
			led.Error = err.Error()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(led); eerr != nil {
			fatal(eerr)
		}
	} else {
		fmt.Println(rep)
	}
	if err != nil {
		fatal(err)
	}
	if rep.Lost != 0 {
		fatal(fmt.Errorf("%d batches lost (sent but never resolved)", rep.Lost))
	}
}

// checkCounts rejects out-of-range numeric flags before any server or
// client starts: -div divides the paper's footprint, so it must be at
// least 1, and the counts whose 0 means "default" or "off" must not be
// negative (a negative -tenant would wrap to a huge slot number).
func checkCounts(div, accesses int64, clients, batch, window, tenant, tenants, queue, spans int) error {
	if div < 1 {
		return fmt.Errorf("bad -div %d: want >= 1", div)
	}
	if accesses < 0 {
		return fmt.Errorf("bad -accesses %d: want >= 0", accesses)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"clients", clients},
		{"batch", batch},
		{"window", window},
		{"tenant", tenant},
		{"tenants", tenants},
		{"queue", queue},
		{"spans", spans},
	} {
		if f.v < 0 {
			return fmt.Errorf("bad -%s %d: want >= 0", f.name, f.v)
		}
	}
	return nil
}

// writeFile creates path and streams fill into it, returning the first
// error from create, fill, or close.
func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "artload:", err)
	os.Exit(1)
}
