// Command artbench regenerates the paper's tables and figures from the
// simulator. Each experiment prints the same rows/series the paper
// reports (see DESIGN.md §3 for the per-experiment index).
//
// Usage:
//
//	artbench -list                 # enumerate experiments
//	artbench -exp fig7             # run one experiment at full scale
//	artbench -exp fig2 -quick      # trimmed sweep at miniature scale
//	artbench -all                  # run everything (long)
//	artbench -exp fig7 -div 128 -accesses 3000000 -v
//	artbench -all -quick -parallel 4   # four cell workers
//	artbench -all -nocache             # force every cell to recompute
//
// Every experiment is a grid of independent cells (one simulation each)
// executed by the internal/sched scheduler: -parallel bounds the worker
// count for any run, single experiment or -all, and results are written
// back by cell index so the tables are byte-identical to a serial run
// at any worker count (DESIGN.md §7). Cells recurring across
// experiments are memoized in-process, and -cache (default on) adds an
// on-disk layer under <outdir>/cache/ keyed by a source stamp of the
// simulator packages, so a rerun on an unchanged tree replays results
// instead of recomputing them. The cache summary goes to stderr;
// -nocache disables both layers.
//
// Output goes to stdout as aligned text tables. Every run also records
// its tables as JSON under -outdir (default bench_results/), in a file
// named BENCH_<git-sha>.json (written atomically: temp file + rename),
// so results are diffable across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"artmem/internal/atomicfile"
	"artmem/internal/exp"
	"artmem/internal/sched"
	"artmem/internal/telemetry"
	"artmem/internal/textplot"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id to run (see -list)")
		list     = flag.Bool("list", false, "list available experiments")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "miniature scale, trimmed sweeps")
		verbose  = flag.Bool("v", false, "log every simulation run and cell progress")
		div      = flag.Int64("div", 0, "override the footprint divisor (paper scale / div)")
		accesses = flag.Int64("accesses", 0, "override the per-run access budget")
		seed     = flag.Uint64("seed", 0, "override the base RNG seed")
		par      = flag.Int("parallel", 0, "cell workers for any run (0 = GOMAXPROCS, 1 = serial)")
		cache    = flag.Bool("cache", true, "persist cell results under <outdir>/cache/ and reuse them")
		nocache  = flag.Bool("nocache", false, "disable the run cache entirely (memory and disk)")
		outdir   = flag.String("outdir", "bench_results", "directory for the JSON result file (empty disables)")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments (paper artifact → id):")
		for _, e := range exp.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
			fmt.Printf("  %-10s paper: %s\n", "", e.Paper)
		}
		return
	}

	o := exp.DefaultOptions()
	if *quick {
		o = exp.QuickOptions()
	}
	if *div > 0 {
		o.Profile.Div = *div
	}
	if *accesses > 0 {
		o.Profile.AppAccesses = *accesses
		o.Profile.PatternAccesses = 2 * *accesses
	}
	if *seed != 0 {
		o.Profile.Seed = *seed
	}
	if *verbose {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Cell scheduler: one worker pool + run cache shared by every
	// experiment of this invocation, so cells recurring across
	// experiments compute once.
	var runCache *sched.Cache
	if !*nocache {
		runCache = sched.NewCache(cacheDir(*cache, *outdir, os.Stderr))
	}
	reg := telemetry.NewRegistry()
	o.Sched = sched.New(sched.Config{
		Workers: *par,
		Cache:   runCache,
		Log:     o.Log,
		Metrics: sched.NewMetrics(reg),
	})

	render := func(e exp.Experiment) (string, expResult) {
		start := time.Now()
		var b strings.Builder
		fmt.Fprintf(&b, "### %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(&b, "### paper: %s\n\n", e.Paper)
		tables := e.Run(o)
		for _, tb := range tables {
			fmt.Fprintln(&b, tb.Render())
		}
		elapsed := time.Since(start)
		fmt.Fprintf(&b, "### %s done in %s\n\n", e.ID, elapsed.Round(time.Millisecond))
		return b.String(), expResult{
			ID: e.ID, Title: e.Title, Paper: e.Paper,
			DurationMs: elapsed.Milliseconds(), Tables: tables,
		}
	}
	var results []expResult
	run := func(e exp.Experiment) {
		out, res := render(e)
		fmt.Print(out)
		results = append(results, res)
	}

	switch {
	case *all:
		// Experiments run in registry order; each one's cells fill the
		// scheduler's worker pool, and the shared cache deduplicates the
		// cells that recur across experiments.
		for _, e := range exp.All() {
			run(e)
		}
	case *expID != "":
		e, err := exp.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "use -list to see available experiments")
			os.Exit(1)
		}
		run(e)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if runCache != nil {
		st := runCache.Stats()
		fmt.Fprintf(os.Stderr,
			"artbench: cache %d hits (%d mem + %d disk), %d misses — hit rate %.0f%%\n",
			st.Hits(), st.MemHits, st.DiskHits, st.Misses, 100*st.HitRate())
	}
	writeResults(*outdir, *quick, results)
}

// cacheDir resolves the on-disk cache directory: <outdir>/cache/<stamp>
// where the stamp hashes the simulator source (so any code change cold-
// starts the cache). Returns "" — memory-only caching — when the disk
// layer is off, outdir is disabled, or the source tree is not visible
// from the working directory; the last case says so on warn, since a
// rerun then recomputes every cell.
func cacheDir(enabled bool, outdir string, warn io.Writer) string {
	if !enabled || outdir == "" {
		return ""
	}
	stamp, err := sched.SourceStamp("internal")
	if err != nil {
		fmt.Fprintf(warn, "artbench: disk cache off, every cell recomputes (%v); run from the repository root to reuse cached cells\n", err)
		return ""
	}
	return filepath.Join(outdir, "cache", stamp)
}

// expResult is one experiment's machine-readable record.
type expResult struct {
	ID         string           `json:"id"`
	Title      string           `json:"title"`
	Paper      string           `json:"paper"`
	DurationMs int64            `json:"duration_ms"`
	Tables     []textplot.Table `json:"tables"`
}

// benchFile is the BENCH_<sha>.json document: the build that produced
// the numbers plus every experiment's tables verbatim.
type benchFile struct {
	Revision    string      `json:"revision"`
	Dirty       bool        `json:"dirty,omitempty"`
	GoVersion   string      `json:"go_version"`
	Timestamp   string      `json:"timestamp"`
	Quick       bool        `json:"quick,omitempty"`
	Experiments []expResult `json:"experiments"`
}

// writeResults records the run under dir as BENCH_<git-sha>.json. A
// rerun on the same commit overwrites — the file captures "the numbers
// this tree produces", not a history (git holds the history). The file
// is written atomically (temp file + rename) so an interrupted run can
// never leave a truncated document behind.
func writeResults(dir string, quick bool, results []expResult) {
	if dir == "" || len(results) == 0 {
		return
	}
	build := telemetry.ReadBuildInfo()
	if build.Revision == "dev" {
		// `go run` skips VCS stamping; ask git directly so the file is
		// still named after the commit when run from a checkout.
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			if sha := strings.TrimSpace(string(out)); sha != "" {
				build.Revision = sha
			}
		}
	}
	doc := benchFile{
		Revision:    build.Revision,
		Dirty:       build.Dirty,
		GoVersion:   build.GoVersion,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Quick:       quick,
		Experiments: results,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "artbench: cannot create %s: %v\n", dir, err)
		return
	}
	path := filepath.Join(dir, "BENCH_"+build.Revision+".json")
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "artbench: encoding results: %v\n", err)
		return
	}
	if err := atomicfile.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "artbench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("### results written to %s\n", path)
}
