package exp

import (
	"strings"
	"testing"

	"artmem/internal/core"
	"artmem/internal/rl"
	"artmem/internal/textplot"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	wantIDs := []string{
		"table2", "fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16a", "fig16b", "fig16c", "fig17", "overheads",
		"liblinear-sampling", "pagesize", "fairness", "churn",
		"servebench", "latency", "tiers",
	}
	all := All()
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, id := range wantIDs {
		if all[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, all[i].ID, id)
		}
		e, err := ByID(id)
		if err != nil {
			t.Errorf("ByID(%q): %v", id, err)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete experiment definition", id)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTrainTablesMemoized(t *testing.T) {
	o := QuickOptions()
	m1, t1 := TrainTables(o, "Liblinear", rl.QLearning)
	m2, t2 := TrainTables(o, "Liblinear", rl.QLearning)
	if m1 != m2 || t1 != t2 {
		t.Error("TrainTables not memoized for identical options")
	}
	m3, _ := TrainTables(o, "XSBench", rl.QLearning)
	if m3 == m1 {
		t.Error("different training workloads share a cache entry")
	}
}

func TestArtMemPolicyGetsPretrainedTables(t *testing.T) {
	o := QuickOptions()
	pol := o.ArtMemPolicy(core.Config{})
	if pol == nil {
		t.Fatal("nil policy")
	}
}

func TestAllPoliciesRoster(t *testing.T) {
	o := QuickOptions()
	fs := o.AllPolicies()
	if len(fs) != 8 {
		t.Fatalf("roster has %d systems, want 8 (7 baselines + ArtMem)", len(fs))
	}
	names := map[string]bool{}
	for _, f := range fs {
		names[f.Name] = true
	}
	if names["Static"] {
		t.Error("Static in the evaluated roster")
	}
	if !names["ArtMem"] || !names["MEMTIS"] {
		t.Errorf("roster incomplete: %v", names)
	}
}

func TestTable2MatchesPaperNumbers(t *testing.T) {
	tables := Table2().Run(QuickOptions())
	out := tables[0].Render()
	for _, want := range []string{"92", "323", "81", "26"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing paper value %s:\n%s", want, out)
		}
	}
}

// Smoke-run the cheap experiments end-to-end in quick mode; the heavy
// sweeps (fig7, fig14, fig15) are exercised by the benchmarks.
func TestQuickExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs")
	}
	o := QuickOptions()
	for _, id := range []string{"table2", "fig1", "fig4", "fig9", "fig11", "overheads"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			checkTables(t, id, e.Run(o))
		})
	}
}

// TestEveryExperimentRunsAtQuickScale executes the complete registry at
// miniature scale — the panic/regression net for every experiment code
// path: every table has a header and rows and renders to more than
// whitespace. Run time is a couple of minutes; -short skips it.
func TestEveryExperimentRunsAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry smoke run")
	}
	o := QuickOptions()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			checkTables(t, e.ID, e.Run(o))
		})
	}
}

// checkTables fails t unless experiment id produced at least one table
// and every table has a header and rows and renders to more than
// whitespace.
func checkTables(t *testing.T, id string, tables []textplot.Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Header) == 0 {
			t.Errorf("table %q has no header", tb.Title)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("table %q has no rows", tb.Title)
		}
		if out := tb.Render(); len(strings.TrimSpace(out)) == 0 {
			t.Errorf("table %q renders empty", tb.Title)
		}
	}
}
