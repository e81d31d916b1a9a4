// Command masim is a standalone MASIM-style access-pattern runner: it
// replays one of the paper's synthetic patterns (S1–S4) — or a custom
// hot-region pattern — against the tiered-memory machine under a chosen
// policy and prints the outcome. It is the simulator-equivalent of the
// paper's motivation-study tooling (§3).
//
// Usage:
//
//	masim -pattern S3 -policy ArtMem -ratio 1:4
//	masim -pattern S2 -policy MEMTIS -v
//	masim -hot 0.25 -hotsize 0.1 -policy TPP    # custom single-region pattern
//	masim -config my-pattern.conf               # MASIM-style pattern file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

func main() {
	var (
		pattern = flag.String("pattern", "S1", "pattern: S1..S4, or 'custom'")
		config  = flag.String("config", "", "MASIM-style pattern configuration file (overrides -pattern)")
		policy  = flag.String("policy", "ArtMem", "tiering policy (ArtMem or a baseline)")
		ratio   = flag.String("ratio", "1:1", "DRAM:PM capacity ratio, e.g. 1:4")
		div     = flag.Int64("div", 64, "footprint divisor vs the paper's 32GB")
		acc     = flag.Int64("accesses", 16_000_000, "trace length")
		hotPos  = flag.Float64("hot", 0.25, "custom pattern: hot region position (fraction)")
		hotSize = flag.Float64("hotsize", 0.1, "custom pattern: hot region size (fraction)")
		hotWt   = flag.Float64("hotweight", 0.9, "custom pattern: hot region access share")
		verbose = flag.Bool("v", false, "print the behaviour over time")
	)
	flag.Parse()
	if *div < 1 {
		// A zero or negative divisor has no footprint to lay regions in.
		fmt.Fprintf(os.Stderr, "masim: bad -div %d: want >= 1\n", *div)
		os.Exit(2)
	}

	r, err := harness.ParseRatio(*ratio)
	if err != nil {
		fmt.Fprintln(os.Stderr, "masim:", err)
		os.Exit(2)
	}
	prof := workloads.Profile{Div: *div, PatternAccesses: *acc, AppAccesses: *acc, Seed: 1}

	var w workloads.Workload
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fatal(err)
		}
		pat, err := workloads.ParsePattern(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		w = workloads.WithInitSweep(pat.NewWorkload(1), 0)
	} else {
		switch strings.ToUpper(*pattern) {
		case "S1", "S2", "S3", "S4":
			spec, err := workloads.ByName(strings.ToUpper(*pattern))
			if err != nil {
				fatal(err)
			}
			w = spec.New(prof)
		case "CUSTOM":
			foot := prof.Bytes(32)
			pat := &workloads.Pattern{
				Name:      "custom",
				Footprint: foot,
				Phases: []workloads.Phase{{
					Name: "steady", Accesses: *acc, WriteFrac: 0.2,
					Regions: []workloads.Region{
						{Start: int64(float64(foot) * *hotPos),
							Size:   int64(float64(foot) * *hotSize),
							Weight: *hotWt},
						{Start: 0, Size: foot, Weight: 1 - *hotWt},
					},
				}},
			}
			w = workloads.WithInitSweep(pat.NewWorkload(1), 0)
		default:
			fatal(fmt.Errorf("unknown pattern %q", *pattern))
		}
	}

	var pol policies.Policy
	if strings.EqualFold(*policy, "artmem") {
		pol = core.New(core.Config{})
	} else {
		f, err := policies.ByName(*policy)
		if err != nil {
			fatal(err)
		}
		pol = f.New()
	}

	res := harness.Run(w, pol, harness.Config{
		PageSize:      prof.PageSize(),
		Ratio:         r,
		CollectSeries: *verbose,
	})

	fmt.Printf("pattern      %s\n", res.Workload)
	fmt.Printf("policy       %s\n", res.Policy)
	fmt.Printf("ratio        %s\n", res.Ratio)
	fmt.Printf("accesses     %d (%d memory, %d cache-absorbed)\n",
		res.Accesses, res.Misses, uint64(res.Accesses)-res.Misses)
	fmt.Printf("exec time    %.2f ms (virtual)\n", float64(res.ExecNs)/1e6)
	fmt.Printf("DRAM ratio   %.3f\n", res.DRAMRatio)
	fmt.Printf("migrations   %d (%d promoted, %d demoted, %.1f MB)\n",
		res.Migrations, res.Promotions, res.Demotions,
		float64(res.MigratedBytes)/(1<<20))
	fmt.Printf("hint faults  %d\n", res.Faults)
	fmt.Printf("bg CPU       %.2f ms (%.2f%% of exec)\n",
		res.BackgroundNs/1e6, 100*res.OverheadFraction())
	if *verbose && res.MigrationSeries.Len() > 0 {
		fmt.Println("\nmigrations per period:")
		for i, ts := range res.MigrationSeries.T {
			fmt.Printf("  t=%6.1fms  %6.0f pages", float64(ts)/1e6, res.MigrationSeries.V[i])
			if i < len(res.RatioSeries.V) {
				fmt.Printf("   ratio %.3f", res.RatioSeries.V[i])
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "masim:", err)
	os.Exit(1)
}
