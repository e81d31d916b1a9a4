// Package sched is the deterministic cell-level experiment scheduler
// and memoized run cache behind cmd/artbench and internal/exp.
//
// An experiment grid (eight workloads × eight policies × six ratios in
// Figure 7, say) is a slice of independent Cells: each cell pairs a
// stable content-addressed Key with a closure that produces one
// harness.Result. The scheduler executes cells on a bounded worker pool
// and writes each result back at the cell's declared index, so tables
// rendered from the result slice are byte-identical to a serial run at
// any worker count — parallelism changes wall-clock, never values
// (harness.Run is pure; see its documentation for the contract).
//
// The run cache is content-addressed: a cell's Key canonically encodes
// the workload name, the workloads.Profile, the policy identity
// (including any pretraining provenance), and the harness.Config, so
// two cells that would replay the identical simulation share one
// computation. Recurring cells across experiments — the Static
// baselines shared by fig2/fig15, the application runs shared by
// fig7/fig14/fig16 — compute once per process. An optional on-disk
// layer persists results across invocations, keyed additionally by a
// source stamp of the simulator packages (SourceStamp) so any code
// change invalidates the whole layer. Cache hits, misses and
// cells-done/total progress are exported through internal/telemetry
// (see Metrics) and surfaced by artbench -v.
//
// All coordination is per-cell: the scheduler never touches the
// simulator's access hot path, so enabling it adds zero per-access
// overhead (policed by the benchdiff gate).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"artmem/internal/harness"
)

// Cell is one independent unit of experiment work: a stable cache key
// plus the closure that computes the result. Run must be a pure
// function of the identity encoded in Key — everything that influences
// the Result must be part of the Key, or caching and deduplication
// would conflate distinct runs.
type Cell struct {
	// Key is the canonical cell identity (see Key and exp's helpers).
	Key string
	// Run computes the cell's result. It may be invoked on any worker
	// goroutine, or not at all on a cache hit.
	Run func() harness.Result
}

// Config parameterizes a Scheduler.
type Config struct {
	// Workers bounds concurrent cell execution. 0 (or negative) uses
	// GOMAXPROCS; 1 runs cells serially in declaration order.
	Workers int
	// Cache, when non-nil, memoizes cell results by Key. Nil disables
	// caching (every cell recomputes).
	Cache *Cache
	// Log, when non-nil, receives progress lines (cells done/total and
	// cache hit counts).
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives counter updates; nil disables
	// telemetry without any call-site guards (see NewMetrics).
	Metrics *Metrics
}

// Scheduler executes cell grids. It is safe for concurrent use: several
// experiments may run their grids through one scheduler at once and
// share its cache and worker budget accounting.
type Scheduler struct {
	workers int
	cache   *Cache
	log     func(format string, args ...any)
	metrics *Metrics

	cellsDone  atomic.Int64
	cellsTotal atomic.Int64
}

// New returns a scheduler for the given configuration.
func New(cfg Config) *Scheduler {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	m := cfg.Metrics
	if m == nil {
		m = &Metrics{} // nil counters are no-ops
	}
	if cfg.Cache != nil {
		cfg.Cache.SetMetrics(m)
	}
	return &Scheduler{workers: w, cache: cfg.Cache, log: cfg.Log, metrics: m}
}

// RunGrid executes every cell and returns the results indexed exactly
// as the cells were: results[i] is cells[i]'s result regardless of the
// order workers finished them. With Workers == 1 the cells run
// serially in declaration order on the calling goroutine.
func (s *Scheduler) RunGrid(cells []Cell) []harness.Result {
	results := make([]harness.Result, len(cells))
	s.cellsTotal.Add(int64(len(cells)))
	s.metrics.CellsTotal.Add(uint64(len(cells)))
	if s.workers == 1 || len(cells) <= 1 {
		for i := range cells {
			results[i] = s.runCell(cells[i])
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(s.workers, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = s.runCell(cells[i])
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runCell executes one cell through the cache (if any) and updates
// progress accounting.
func (s *Scheduler) runCell(c Cell) harness.Result {
	var res harness.Result
	if s.cache == nil {
		res = c.Run()
	} else {
		res, _ = s.cache.GetOrRun(c.Key, c.Run)
	}
	done := s.cellsDone.Add(1)
	s.metrics.CellsDone.Inc()
	if s.log != nil {
		st := s.cacheStats()
		s.log("sched: cells %d/%d done (cache: %d mem + %d disk hits, %d misses)",
			done, s.cellsTotal.Load(), st.MemHits, st.DiskHits, st.Misses)
	}
	return res
}

// cacheStats returns the cache's counters, or zeros without a cache.
func (s *Scheduler) cacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}
