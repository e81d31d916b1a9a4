package core

import (
	"encoding/json"
	"net/http"
)

// ControlHandler returns an http.Handler exposing the multi-tenant
// control plane:
//
//	GET /tenants       arbiter posture + per-tenant occupancy, quota,
//	                   traffic, and agent state as JSON (TenantsReport)
//	GET /stats         machine-wide counters as JSON (same shape a
//	                   single-tenant daemon serves, minus agent fields)
//	GET /metrics       the shared registry in Prometheus text format,
//	                   including the tenant-labelled series
//	GET /metrics.json  the shared registry as JSON
//	GET /trace         one tenant agent's decision trace as JSONL
//	                   (?tenant= selects the tenant, default 0; ?n= caps)
//	GET /healthz       ok/degraded/draining liveness for balancers
//	                   (JSON; draining answers 503)
//
// A single-tenant System's handler serves no /tenants route — clients
// (cmd/artmon) treat a 404 there as "not a multi-tenant daemon" and
// degrade gracefully.
func (s *MultiSystem) ControlHandler() http.Handler {
	mux := s.controlMux()
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.TenantsReport())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		c := s.m.Counters()
		now := s.m.Now()
		active := s.plane.ActiveTenants()
		lc := s.plane.Stats()
		s.mu.Unlock()
		payload := struct {
			machineStats
			ActiveTenants    int    `json:"active_tenants"`
			Registrations    uint64 `json:"registrations"`
			Deregistrations  uint64 `json:"deregistrations"`
			Crashes          uint64 `json:"crashes"`
			ReclaimRollbacks uint64 `json:"reclaim_rollbacks"`
			Faults           any    `json:"faults,omitempty"`
		}{
			machineStats:     newMachineStats(now, c),
			ActiveTenants:    active,
			Registrations:    lc.Registrations,
			Deregistrations:  lc.Deregistrations,
			Crashes:          lc.Crashes,
			ReclaimRollbacks: lc.ReclaimRollbacks,
		}
		if s.injector != nil {
			st := s.injector.Stats()
			payload.Faults = &st
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		tenant, ok := queryInt(w, r, "tenant", 0)
		if !ok {
			return
		}
		if tenant >= len(s.agents) {
			http.Error(w, "bad tenant", http.StatusBadRequest)
			return
		}
		n, ok := queryInt(w, r, "n", 0)
		if !ok {
			return
		}
		s.mu.Lock()
		a := s.agents[tenant]
		s.mu.Unlock()
		if a == nil {
			http.Error(w, "tenant slot has no agent", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		a.Telemetry().Trace.WriteJSONL(w, n)
	})
	return mux
}
