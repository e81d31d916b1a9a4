package core

import (
	"encoding/json"
	"net/http"
)

// Health is a snapshot of the runtime's liveness and resilience state.
type Health struct {
	// SamplingBeats and MigrationBeats count completed worker
	// iterations; a live system's beats keep advancing.
	SamplingBeats  uint64
	MigrationBeats uint64
	// SamplingStalls and MigrationStalls count watchdog intervals during
	// which the corresponding thread made no progress.
	SamplingStalls  uint64
	MigrationStalls uint64
	// Panics counts worker-thread panics that were recovered.
	Panics uint64
	// Degraded reports whether any agent is in the heuristic fallback.
	Degraded bool
}

// healthzStatus is the JSON document served at /healthz. The field set
// is fixed (schema-pinned) so load balancers and the loopback smoke
// can rely on it.
type healthzStatus struct {
	// Status is "ok", "degraded" (the agent fell back to heuristic
	// mode or a worker stalled/panicked), or "draining" (graceful
	// shutdown in progress — served with 503 so balancers stop
	// routing).
	Status string `json:"status"`
	// Degraded and Draining are the raw flags behind Status.
	Degraded bool `json:"degraded"`
	Draining bool `json:"draining"`
	// Liveness detail from the watchdog Health snapshot.
	SamplingBeats  uint64 `json:"sampling_beats"`
	MigrationBeats uint64 `json:"migration_beats"`
	WatchdogStalls uint64 `json:"watchdog_stalls"`
	Panics         uint64 `json:"panics"`
}

// serveHealthz serves GET /healthz from the loop's Health snapshot.
// Draining answers 503 (stop routing new work here), everything else
// 200 — a degraded daemon still serves traffic, just on the heuristic
// fallback, and the body says so.
func (l *controlLoop) serveHealthz(w http.ResponseWriter, r *http.Request) {
	h := l.Health()
	st := healthzStatus{
		Degraded:       h.Degraded || h.Panics > 0 || h.SamplingStalls+h.MigrationStalls > 0,
		Draining:       l.Draining(),
		SamplingBeats:  h.SamplingBeats,
		MigrationBeats: h.MigrationBeats,
		WatchdogStalls: h.SamplingStalls + h.MigrationStalls,
		Panics:         h.Panics,
	}
	switch {
	case st.Draining:
		st.Status = "draining"
	case st.Degraded:
		st.Status = "degraded"
	default:
		st.Status = "ok"
	}
	w.Header().Set("Content-Type", "application/json")
	if st.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}
