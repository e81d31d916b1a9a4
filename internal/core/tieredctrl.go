package core

import (
	"encoding/json"
	"net/http"
	"sort"

	"artmem/internal/memsim"
	"artmem/internal/telemetry"
)

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
// gracefully when the endpoint is absent (old two-tier daemons).
type TiersReport struct {
	VirtualNs         int64            `json:"virtual_ns"`
	NonExclusive      bool             `json:"non_exclusive"`
	Tiers             []TierStatus     `json:"tiers"`
	Boundaries        []BoundaryStatus `json:"boundaries"`
	ShadowInvalidates uint64           `json:"shadow_invalidates"`
	ShadowReclaims    uint64           `json:"shadow_reclaims"`
}

// TiersStatus assembles the /tiers document under the system lock.
func (s *TieredSystem) TiersStatus() TiersReport {
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
	for b := range s.agents {
		bs := s.m.BoundaryStatsAt(b)
		a := s.agents[b]
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

// ControlHandler returns the HTTP surface of the N-tier runtime:
//
//	GET /healthz       ok/degraded/draining liveness (shared schema)
//	GET /tiers         per-tier occupancy and per-boundary agents, JSON
//	GET /stats         machine counters as JSON
//	GET /metrics       the registry in Prometheus text format
//	GET /metrics.json  the registry as a JSON snapshot
//	GET /trace         the boundary agents' decision traces, merged on
//	                   the virtual clock, as JSONL (?n= caps events)
//
// The per-boundary agents' interaction channels (hit ratio, actions,
// thresholds) are visible through /tiers rather than the two-tier
// pseudo-file endpoints, which assume a single agent.
func (s *TieredSystem) ControlHandler() http.Handler {
	mux := s.controlMux()
	mux.HandleFunc("GET /tiers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.TiersStatus())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		c := s.m.Counters()
		now := s.m.Now()
		s.mu.Unlock()
		h := s.Health()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			machineStats
			ShadowDiscards    uint64 `json:"shadow_discards"`
			ShadowInvalidates uint64 `json:"shadow_invalidates"`
			ShadowReclaims    uint64 `json:"shadow_reclaims"`
			Degraded          bool   `json:"degraded"`
			WatchdogStalls    uint64 `json:"watchdog_stalls"`
			Panics            uint64 `json:"panics"`
		}{
			machineStats:      newMachineStats(now, c),
			ShadowDiscards:    c.ShadowDiscards,
			ShadowInvalidates: c.ShadowInvalidates,
			ShadowReclaims:    c.ShadowReclaims,
			Degraded:          h.Degraded,
			WatchdogStalls:    h.SamplingStalls + h.MigrationStalls,
			Panics:            h.Panics,
		})
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryInt(w, r, "n", 0) // 0: everything retained
		if !ok {
			return
		}
		// Each boundary agent records into its private trace ring; the
		// drain merges them on the shared virtual clock. Per-ring seqs
		// only break ties, so cross-boundary ordering is by TimeNs.
		var evs []telemetry.Event
		for _, at := range s.agentTels {
			evs = append(evs, at.Trace.Events(n)...)
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
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
	})
	return mux
}
