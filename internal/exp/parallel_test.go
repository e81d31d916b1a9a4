package exp

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"artmem/internal/harness"
	"artmem/internal/sched"
	"artmem/internal/telemetry"
	"artmem/internal/workloads"
)

// renderAll runs an experiment and joins its rendered tables, the exact
// bytes artbench would print for it.
func renderAll(e Experiment, o Options) string {
	var b strings.Builder
	for _, t := range e.Run(o) {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelTablesByteIdenticalToSerial is the determinism criterion
// from DESIGN.md §7: for six experiments that between them reach every
// harness entry point — fig2 and fig7 (Run), fairness (RunTenants),
// churn (RunChurn), latency (the span-traced serving frontend) and
// tiers (RunTiered) — the tables rendered from a serial run and from an
// 8-worker run must match byte for byte. Each run gets a fresh cache so
// both actually compute their cells.
func TestParallelTablesByteIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs take a while")
	}
	o := QuickOptions()
	// Trimmed further than quick scale: determinism does not depend on
	// trace length, and the comparison runs every cell twice.
	o.Profile = workloads.Profile{Div: 512, PatternAccesses: 400_000, AppAccesses: 200_000, Seed: 1}

	for _, id := range []string{"fig2", "fig7", "fairness", "churn", "latency", "tiers"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		serial := o
		serial.Sched = sched.New(sched.Config{Workers: 1, Cache: sched.NewCache("")})
		want := renderAll(e, serial)

		par := o
		par.Sched = sched.New(sched.Config{Workers: 8, Cache: sched.NewCache("")})
		got := renderAll(e, par)

		if want != got {
			t.Errorf("%s: parallel tables differ from serial\n--- serial ---\n%s--- parallel ---\n%s",
				id, want, got)
		}
	}
}

// TestChaosGridMixedExperiments drives mixed experiments through one
// shared parallel scheduler concurrently — synthetic patterns, MEMTIS
// tuning, graph workloads with ArtMem training, and workload mixes all
// at once, twice each. It deliberately stays un-skipped under -short so
// `go test -race -short` (the make check gate) exercises the shared
// workload caches, the training singleflight, and the run cache under
// contention. Both runs of each experiment must render identically.
func TestChaosGridMixedExperiments(t *testing.T) {
	o := QuickOptions()
	// Tiny traces: the point is interleaving, not fidelity, and the race
	// detector multiplies every access.
	o.Profile = workloads.Profile{Div: 512, PatternAccesses: 80_000, AppAccesses: 40_000, Seed: 1}
	m := sched.NewMetrics(telemetry.NewRegistry())
	o.Sched = sched.New(sched.Config{Workers: 8, Cache: sched.NewCache(""), Metrics: m})

	ids := []string{"fig2", "fig4", "fig9", "fig16c"}
	const runsPer = 2
	out := make(map[string][]string, len(ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < runsPer; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := renderAll(e, o)
				mu.Lock()
				out[e.ID] = append(out[e.ID], s)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()

	for _, id := range ids {
		rendered := out[id]
		if len(rendered) != runsPer {
			t.Fatalf("%s: %d runs finished, want %d", id, len(rendered), runsPer)
		}
		if rendered[0] == "" {
			t.Errorf("%s: empty output", id)
		}
		for r := 1; r < runsPer; r++ {
			if rendered[r] != rendered[0] {
				t.Errorf("%s: concurrent run %d rendered differently", id, r)
			}
		}
	}

	// Every one of the second runs should have been served by the shared
	// cache (computed at most once per distinct key).
	if done, total := m.CellsDone.Value(), m.CellsTotal.Value(); done != total {
		t.Errorf("progress = %d/%d, want all cells accounted", done, total)
	}
}

// TestDefaultSchedulerIsSerialAndCached covers the fallback used when
// Options.Sched is nil: cells still go through a cache (so repeated
// experiments in one process dedupe) and run serially.
func TestDefaultSchedulerIsSerialAndCached(t *testing.T) {
	var o Options
	s := o.scheduler()
	if s == nil {
		t.Fatal("nil fallback scheduler")
	}
	// Serial: no two cells overlap, and they run in declaration order.
	var (
		mu      sync.Mutex
		order   []int
		running atomic.Int32
		overlap atomic.Bool
	)
	cells := make([]sched.Cell, 16)
	for i := range cells {
		cells[i] = sched.Cell{
			Key: fmt.Sprintf("TestDefaultSchedulerIsSerialAndCached/%d", i),
			Run: func() harness.Result {
				if running.Add(1) > 1 {
					overlap.Store(true)
				}
				runtime.Gosched()
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				running.Add(-1)
				return harness.Result{}
			},
		}
	}
	s.RunGrid(cells)
	if overlap.Load() || !sort.IntsAreSorted(order) || len(order) != len(cells) {
		t.Errorf("fallback ran cells in order %v (overlap %v), want serial declaration order", order, overlap.Load())
	}
	if s2 := o.scheduler(); s2 != s {
		t.Error("fallback scheduler not process-wide")
	}
	withSched := Options{Sched: sched.New(sched.Config{Workers: 4})}
	if withSched.scheduler() != withSched.Sched {
		t.Error("explicit scheduler not used")
	}
}

// TestGridKeysAreUniquePerDistinctCell guards the cache-identity rule:
// within one experiment declaration, two cells that should be distinct
// runs must never share a key. Duplicated keys are legal only when the
// cells are genuinely identical (fig14's diagonal); here we check a
// representative grid-heavy experiment declares as many distinct keys
// as distinct (workload, policy, config) combinations.
func TestGridKeysAreUniquePerDistinctCell(t *testing.T) {
	o := QuickOptions()
	g := o.newGrid()
	seen := map[string]int{}
	for _, ratio := range o.ratios() {
		for _, name := range o.appNames() {
			for _, p := range o.allPolicySpecs() {
				i := g.add(name, p, harness.Config{Ratio: ratio})
				key := g.cells[i].Key
				if prev, dup := seen[key]; dup {
					t.Fatalf("cells %d and %d share key %q", prev, i, key)
				}
				seen[key] = i
			}
		}
	}
}
