package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"artmem/internal/memsim"
	"artmem/internal/telemetry"
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
//	GET /tiers                   per-tier occupancy and per-boundary agents
//	                             as JSON; served only with more than one
//	                             boundary
//
// The pseudo-file endpoints and /qtable read boundary 0's agent. On a
// chain, /stats sums the resilience counters over all agents, /trace
// merges their decision traces, and /tiers shows every boundary.
func (s *System) ControlHandler() http.Handler {
	mux := s.controlMux()
	if len(s.agents) > 1 {
		mux.HandleFunc("GET /tiers", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s.TiersStatus())
		})
	}
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
		pages := migrationPages[s.pol.actMig]
		migrated := s.pol.lastMigrated
		s.mu.Unlock()
		decisions := s.pol.Decisions()
		fmt.Fprintf(w, "migration_pages %d\nlast_migrated %d\ndecisions %d\n",
			pages, migrated, decisions)
	})
	mux.HandleFunc("GET /memory.threshold_show", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		thr := s.pol.threshold
		delta := thresholdDeltas[s.pol.actThr]
		s.mu.Unlock()
		fmt.Fprintf(w, "threshold %d\nlast_delta %d\n", thr, delta)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		c := s.m.Counters()
		now := s.m.Now()
		degraded := anyDegraded(s.agents)
		var sampleDrops uint64
		for _, a := range s.agents {
			sampleDrops += a.sampler.Dropped() + a.sampler.InjectedDrops()
		}
		s.mu.Unlock()
		var fs FaultStats
		for _, a := range s.agents {
			fs = fs.add(a.FaultStats())
		}
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
		enc := json.NewEncoder(w)
		for _, e := range s.traceEvents(n) {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
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

// traceEvents returns the last n decision events (0: every retained
// one) across the agents' trace rings. One agent's ring comes back as
// recorded; several are merged on the shared virtual clock, ties broken
// by the per-ring sequence number.
func (s *System) traceEvents(n int) []telemetry.Event {
	var evs []telemetry.Event
	for _, a := range s.agents {
		evs = append(evs, a.Telemetry().Trace.Events(n)...)
	}
	if len(s.agents) == 1 {
		return evs
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TimeNs != evs[j].TimeNs {
			return evs[i].TimeNs < evs[j].TimeNs
		}
		return evs[i].Seq < evs[j].Seq
	})
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// TierStatus is one tier's row in the /tiers document.
type TierStatus struct {
	Index       int    `json:"index"`
	Name        string `json:"name"`
	UsedPages   int    `json:"used_pages"`
	Capacity    int    `json:"capacity_pages"`
	ShadowPages int    `json:"shadow_pages"`
	Accesses    uint64 `json:"accesses"`
}

// BoundaryStatus is one tier boundary's row in the /tiers document:
// the boundary's migration totals plus its agent's RL state.
type BoundaryStatus struct {
	Boundary       int    `json:"boundary"`
	Upper          string `json:"upper"`
	Lower          string `json:"lower"`
	Promotions     uint64 `json:"promotions"`
	Demotions      uint64 `json:"demotions"`
	ShadowDiscards uint64 `json:"shadow_discards"`
	Threshold      uint32 `json:"threshold"`
	Decisions      uint64 `json:"decisions"`
	Degraded       bool   `json:"degraded"`
}

// TiersReport is the JSON document served at /tiers. The field set is
// schema-pinned: artmon renders its per-tier panel from it and degrades
// gracefully when the endpoint is absent (two-tier daemons).
type TiersReport struct {
	VirtualNs         int64            `json:"virtual_ns"`
	NonExclusive      bool             `json:"non_exclusive"`
	Tiers             []TierStatus     `json:"tiers"`
	Boundaries        []BoundaryStatus `json:"boundaries"`
	ShadowInvalidates uint64           `json:"shadow_invalidates"`
	ShadowReclaims    uint64           `json:"shadow_reclaims"`
}

// TiersStatus assembles the /tiers document under the system lock.
func (s *System) TiersStatus() TiersReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.m.Counters()
	st := TiersReport{
		VirtualNs:         s.m.Now(),
		NonExclusive:      s.m.Config().NonExclusive,
		ShadowInvalidates: c.ShadowInvalidates,
		ShadowReclaims:    c.ShadowReclaims,
	}
	for t := 0; t < s.m.Tiers(); t++ {
		tid := memsim.TierID(t)
		st.Tiers = append(st.Tiers, TierStatus{
			Index:       t,
			Name:        s.m.TierName(tid),
			UsedPages:   s.m.UsedPages(tid),
			Capacity:    s.m.CapacityPages(tid),
			ShadowPages: s.m.ShadowPages(tid),
			Accesses:    s.m.TierAccesses(tid),
		})
	}
	for b, a := range s.agents {
		bs := s.m.BoundaryStatsAt(b)
		st.Boundaries = append(st.Boundaries, BoundaryStatus{
			Boundary:       b,
			Upper:          s.m.TierName(memsim.TierID(b)),
			Lower:          s.m.TierName(memsim.TierID(b + 1)),
			Promotions:     bs.Promotions,
			Demotions:      bs.Demotions,
			ShadowDiscards: bs.ShadowDiscards,
			Threshold:      a.threshold,
			Decisions:      a.Decisions(),
			Degraded:       a.degraded,
		})
	}
	return st
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
