package core

import (
	"encoding/json"
	"fmt"
	"net/http"

	"artmem/internal/memsim"
)

// This file exposes the paper's §5 "interaction channels for environment
// and agent information" over HTTP. The kernel prototype adds pseudo-
// files under the memory cgroup directory — memory.hit_ratio_show to
// read the sampled access ratio, memory.action_show and
// memory.threshold_show to observe the agent's decisions — "allowing the
// reinforcement learning algorithm to be implemented in user space,
// facilitating algorithm parameter adjustments and comparative
// experiments". The simulator's analogue serves the same three files
// (plus machine counters) as HTTP endpoints on a System.

// ControlHandler returns an http.Handler exposing the system's
// interaction channels:
//
//	GET /memory.hit_ratio_show   sampled fast/slow window counts & ratio
//	GET /memory.action_show      the agent's last migration action
//	GET /memory.threshold_show   the current hotness threshold
//	GET /stats                   machine counters as JSON
//	GET /metrics                 the full registry in Prometheus text format
//	GET /trace                   the decision trace as JSONL (?n= caps events)
//	GET /pagetrace               the page-lifecycle journal as JSONL
//	                             (?page= filters one page, ?n= caps events)
//	GET /qtable                  both Q-tables with learning history as JSON
//	GET /healthz                 ok/degraded/draining liveness for balancers
//	                             (JSON; draining answers 503)
func (s *System) ControlHandler() http.Handler {
	mux := s.controlMux()
	mux.HandleFunc("GET /memory.hit_ratio_show", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		fast, slow := s.pol.sampler.PeekWindowCounts()
		state := s.pol.state
		s.mu.Unlock()
		// The kernel file prints plain numbers; keep that spirit.
		fmt.Fprintf(w, "fast %d\nslow %d\nstate %d\n", fast, slow, state)
	})
	mux.HandleFunc("GET /memory.action_show", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		pages := s.pol.cfg.MigrationPages[s.pol.actMig]
		migrated := s.pol.lastMigrated
		s.mu.Unlock()
		decisions := s.pol.Decisions()
		fmt.Fprintf(w, "migration_pages %d\nlast_migrated %d\ndecisions %d\n",
			pages, migrated, decisions)
	})
	mux.HandleFunc("GET /memory.threshold_show", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		thr := s.pol.threshold
		delta := s.pol.cfg.ThresholdDeltas[s.pol.actThr]
		s.mu.Unlock()
		fmt.Fprintf(w, "threshold %d\nlast_delta %d\n", thr, delta)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		c := s.m.Counters()
		now := s.m.Now()
		degraded := s.pol.degraded
		sampleDrops := s.pol.sampler.Dropped() + s.pol.sampler.InjectedDrops()
		s.mu.Unlock()
		fs := s.pol.FaultStats()
		h := s.Health()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			machineStats
			// Resilience: fault, retry, and degraded-mode accounting.
			Degraded           bool   `json:"degraded"`
			DegradedTicks      uint64 `json:"degraded_ticks"`
			DegradedEntries    uint64 `json:"degraded_entries"`
			MigrationFailures  uint64 `json:"migration_failures"`
			MigrationRetries   uint64 `json:"migration_retries"`
			MigrationSkips     uint64 `json:"migration_skips"`
			MigrationRollbacks uint64 `json:"migration_rollbacks"`
			TierFullStops      uint64 `json:"tier_full_stops"`
			SampleDrops        uint64 `json:"sample_drops"`
			WatchdogStalls     uint64 `json:"watchdog_stalls"`
			Panics             uint64 `json:"panics"`
		}{
			machineStats:       newMachineStats(now, c),
			Degraded:           degraded,
			DegradedTicks:      fs.DegradedTicks,
			DegradedEntries:    fs.DegradedEntries,
			MigrationFailures:  c.MigrationFailures,
			MigrationRetries:   fs.Retries,
			MigrationSkips:     fs.SkippedPages,
			MigrationRollbacks: fs.Rollbacks,
			TierFullStops:      fs.TierFullStops,
			SampleDrops:        sampleDrops,
			WatchdogStalls:     h.SamplingStalls + h.MigrationStalls,
			Panics:             h.Panics,
		})
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryInt(w, r, "n", 0) // 0: everything retained
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.tel.Trace.WriteJSONL(w, n)
	})
	mux.HandleFunc("GET /pagetrace", func(w http.ResponseWriter, r *http.Request) {
		// The page trace has its own lock; serving it must not take s.mu
		// (the lifecycle hooks append while the policy holds it).
		pt := s.tel.PageTrace
		if pt == nil {
			http.Error(w, "page tracing disabled (start with a page-trace sample rate)",
				http.StatusNotFound)
			return
		}
		n, ok := queryInt(w, r, "n", 0)
		if !ok {
			return
		}
		page, ok := queryInt(w, r, "page", -1)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		pt.WriteJSONL(w, n, int64(page))
	})
	mux.HandleFunc("GET /qtable", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		rep := s.pol.QTableReport()
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	return mux
}

// machineStats leads every /stats payload: the machine counters all
// daemon modes serve, embedded first so the JSON keys keep their order.
type machineStats struct {
	VirtualNs     int64   `json:"virtual_ns"`
	FastAccesses  uint64  `json:"fast_accesses"`
	SlowAccesses  uint64  `json:"slow_accesses"`
	CacheHits     uint64  `json:"cache_hits"`
	DRAMRatio     float64 `json:"dram_ratio"`
	Migrations    uint64  `json:"migrations"`
	Promotions    uint64  `json:"promotions"`
	Demotions     uint64  `json:"demotions"`
	MigratedBytes uint64  `json:"migrated_bytes"`
}

// newMachineStats fills the shared /stats prefix from a counter
// snapshot taken at virtual time now.
func newMachineStats(now int64, c memsim.Counters) machineStats {
	return machineStats{
		VirtualNs:     now,
		FastAccesses:  c.FastAccesses,
		SlowAccesses:  c.SlowAccesses,
		CacheHits:     c.CacheHits,
		DRAMRatio:     c.DRAMRatio(),
		Migrations:    c.Migrations,
		Promotions:    c.Promotions,
		Demotions:     c.Demotions,
		MigratedBytes: c.MigratedBytes,
	}
}
