// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper (DESIGN.md §3 maps each to its experiment). Each
// benchmark regenerates its artifact at bench scale (benchOptions) and
// writes the rendered tables to bench_results/<id>.txt so the outputs
// can be inspected and diffed against EXPERIMENTS.md.
//
// Run a single figure:
//
//	go test -bench BenchmarkFig7 -benchtime 1x
//
// Run everything (takes minutes — fig7 alone is hundreds of runs):
//
//	go test -bench . -benchtime 1x
package artmem_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"artmem/internal/exp"
	"artmem/internal/workloads"
)

// benchOptions is the bench scale: large enough for the shapes to
// emerge, small enough that the full suite finishes in minutes.
var benchOptions = exp.Options{
	Profile: workloads.Profile{
		Div:             128,
		PatternAccesses: 12_000_000,
		AppAccesses:     3_000_000,
		Seed:            1,
	},
}

// benchExperiment runs experiment id once per b.N iteration and persists
// the output of the final iteration.
func benchExperiment(b *testing.B, id string) {
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOptions
	var rendered strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rendered.Reset()
		rendered.WriteString("# " + e.Title + "\n")
		rendered.WriteString("# paper: " + e.Paper + "\n\n")
		for _, tb := range e.Run(o) {
			rendered.WriteString(tb.Render())
			rendered.WriteByte('\n')
		}
	}
	b.StopTimer()
	if err := os.MkdirAll("bench_results", 0o755); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join("bench_results", id+".txt")
	if err := os.WriteFile(path, []byte(rendered.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", path)
}

// ---- motivation study -------------------------------------------------------

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }

// ---- main evaluation ---------------------------------------------------------

func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// ---- understanding ArtMem ----------------------------------------------------

func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// ---- scalability and robustness ----------------------------------------------

func BenchmarkFig16a(b *testing.B)    { benchExperiment(b, "fig16a") }
func BenchmarkFig16b(b *testing.B)    { benchExperiment(b, "fig16b") }
func BenchmarkFig16c(b *testing.B)    { benchExperiment(b, "fig16c") }
func BenchmarkFig17(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkOverheads(b *testing.B) { benchExperiment(b, "overheads") }

// ---- extensions ---------------------------------------------------------------

func BenchmarkLiblinearSampling(b *testing.B) { benchExperiment(b, "liblinear-sampling") }
func BenchmarkPageSize(b *testing.B)          { benchExperiment(b, "pagesize") }

// ---- serving frontend ----------------------------------------------------------

func BenchmarkServeBench(b *testing.B) { benchExperiment(b, "servebench") }
