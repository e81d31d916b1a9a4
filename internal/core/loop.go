package core

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"artmem/internal/faultinject"
	"artmem/internal/telemetry"
)

// loopConfig is what a runtime hands its control loop: the per-runtime
// parts of an otherwise shared lifecycle.
type loopConfig struct {
	tel *telemetry.Set
	// injector is the runtime's fault injector, nil when fault-free.
	injector *faultinject.Injector
	// lock is held around every pass and every degraded read: the
	// runtime's system mutex, which its access path also takes.
	lock sync.Locker
	// sample and migrate are one ksampled and one kmigrated period.
	sample, migrate func()
	// degraded reports whether any agent runs the heuristic fallback.
	degraded func() bool
	// Zero intervals use 2ms, 20ms and 1s; a negative watchdog interval
	// disables the watchdog.
	samplingInterval, migrationInterval, watchdogInterval time.Duration
}

// controlLoop is the one control runtime behind System and
// MultiSystem, after the paper's §4.4 architecture: one sampling
// thread (ksampled) and one migration thread (kmigrated) serve every
// agent of the runtime, and a watchdog observes both. It owns the
// lifecycle, panic recovery, busy accounting, liveness counters,
// health and draining; each runtime embeds it and supplies only its
// passes, its lock, and its degraded check. The access hot path never
// goes through the loop.
type controlLoop struct {
	loopConfig

	runMu sync.Mutex // guards stop
	// stop is non-nil while the threads run; Stop closes it.
	stop chan struct{}
	wg   sync.WaitGroup

	// Liveness accounting, written by the worker threads and read by the
	// watchdog and Health without taking the runtime's lock. The
	// counters live on the telemetry registry (atomic underneath), so
	// they show up on /metrics without separate plumbing.
	sampleBeats   *telemetry.Counter
	migrateBeats  *telemetry.Counter
	sampleStalls  *telemetry.Counter
	migrateStalls *telemetry.Counter
	panics        *telemetry.Counter
	ctlBusy       *telemetry.Counter

	// draining is set by the daemon during graceful shutdown so
	// /healthz can advertise the state to load balancers.
	draining atomic.Bool
}

// newControlLoop applies the interval defaults and registers the six
// artmem_ liveness counters.
func newControlLoop(c loopConfig) *controlLoop {
	if c.samplingInterval == 0 {
		c.samplingInterval = 2 * time.Millisecond
	}
	if c.migrationInterval == 0 {
		c.migrationInterval = 20 * time.Millisecond
	}
	if c.watchdogInterval == 0 {
		c.watchdogInterval = time.Second
	}
	l := &controlLoop{loopConfig: c}
	reg := c.tel.Registry
	l.sampleBeats = reg.Counter("artmem_sampling_beats_total",
		"Completed sampling-thread iterations (ksampled heartbeats).")
	l.migrateBeats = reg.Counter("artmem_migration_beats_total",
		"Completed migration-thread iterations (kmigrated heartbeats).")
	l.sampleStalls = reg.Counter("artmem_sampling_stalls_total",
		"Watchdog intervals in which the sampling thread made no progress.")
	l.migrateStalls = reg.Counter("artmem_migration_stalls_total",
		"Watchdog intervals in which the migration thread made no progress.")
	l.panics = reg.Counter("artmem_worker_panics_total",
		"Recovered panics in the worker threads.")
	l.ctlBusy = reg.Counter("artmem_control_busy_ns_total",
		"Wall nanoseconds the control loop held the system lock (sampling drains, migration passes) — the serve layer's migration-stall attribution source.")
	return l
}

// Start launches the sampling, migration, and watchdog threads. It is a
// no-op if already started.
func (l *controlLoop) Start() {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	if l.stop != nil {
		return
	}
	l.stop = make(chan struct{})
	l.wg.Add(2)
	go l.thread(l.samplingInterval, l.stop, func() { l.runProtected(l.sampleBeats, l.sample) })
	go l.thread(l.migrationInterval, l.stop, func() { l.runProtected(l.migrateBeats, l.migrate) })
	if l.watchdogInterval > 0 {
		l.wg.Add(1)
		go l.watchdogThread(l.stop)
	}
}

// Stop halts the background threads and waits for them. Idempotent.
// runMu is held through the wait so a concurrent Start cannot reuse the
// WaitGroup mid-Wait; the threads never take it.
func (l *controlLoop) Stop() {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	if l.stop == nil {
		return
	}
	close(l.stop)
	l.stop = nil
	l.wg.Wait()
}

// thread runs step once per interval until stop closes.
func (l *controlLoop) thread(interval time.Duration, stop <-chan struct{}, step func()) {
	defer l.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			step()
		}
	}
}

// runProtected executes one pass under the loop's lock, recovering from
// panics (a crashing policy tick must not take the daemon down; the
// deferred unlock runs before the recover, so a panicking pass cannot
// poison the mutex) and charging the pass's wall time to the busy
// counter. The beat advances only on successful passes.
func (l *controlLoop) runProtected(beat *telemetry.Counter, pass func()) {
	defer func() {
		if r := recover(); r != nil {
			l.panics.Inc()
		}
	}()
	l.lock.Lock()
	defer l.lock.Unlock()
	t0 := time.Now()
	defer func() { l.ctlBusy.Add(uint64(time.Since(t0))) }()
	pass()
	beat.Inc()
}

// watchdogState is the watchdog's memory between checks: the heartbeat
// values seen at the previous interval. Extracted (together with
// watchdogCheck) so Health transitions are unit-testable without real
// timers.
type watchdogState struct {
	lastSample, lastMigrate uint64
}

// watchdogCheck performs one watchdog interval's work: any worker whose
// heartbeat did not advance since the previous check is counted as
// stalled. Stall counts are monotonic — a recovered thread stops
// accumulating them but past stalls remain visible in Health.
func (l *controlLoop) watchdogCheck(w *watchdogState) {
	if cur := l.sampleBeats.Value(); cur == w.lastSample {
		l.sampleStalls.Inc()
	} else {
		w.lastSample = cur
	}
	if cur := l.migrateBeats.Value(); cur == w.lastMigrate {
		l.migrateStalls.Inc()
	} else {
		w.lastMigrate = cur
	}
}

// watchdogThread checks once per interval that both workers' heartbeats
// advanced.
func (l *controlLoop) watchdogThread(stop <-chan struct{}) {
	var w watchdogState
	l.thread(l.watchdogInterval, stop, func() { l.watchdogCheck(&w) })
}

// Health returns the runtime's liveness snapshot; Degraded reports
// whether any agent is in the heuristic fallback. Safe to call
// concurrently with a running runtime.
func (l *controlLoop) Health() Health {
	l.lock.Lock()
	degraded := l.degraded()
	l.lock.Unlock()
	return Health{
		SamplingBeats:   l.sampleBeats.Value(),
		MigrationBeats:  l.migrateBeats.Value(),
		SamplingStalls:  l.sampleStalls.Value(),
		MigrationStalls: l.migrateStalls.Value(),
		Panics:          l.panics.Value(),
		Degraded:        degraded,
	}
}

// ControlBusyNs returns the cumulative wall nanoseconds the control
// passes held the runtime's lock. Access batches contend with exactly
// that lock, so differencing this counter across a batch's queue
// residency attributes its migration/sampling stall (serve.Config.StallNs).
func (l *controlLoop) ControlBusyNs() int64 { return int64(l.ctlBusy.Value()) }

// SetDraining marks (or clears) the graceful-shutdown state advertised
// by /healthz. The control loop keeps running; this is pure signaling
// for load balancers.
func (l *controlLoop) SetDraining(v bool) { l.draining.Store(v) }

// Draining reports the graceful-shutdown state set by SetDraining.
func (l *controlLoop) Draining() bool { return l.draining.Load() }

// Telemetry returns the runtime's registry + decision trace, the set
// served by the control endpoints.
func (l *controlLoop) Telemetry() *telemetry.Set { return l.tel }

// controlMux returns a mux serving the routes every runtime's control
// handler shares: /healthz, /metrics, and /metrics.json.
func (l *controlLoop) controlMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", l.serveHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// The registry's pull closures take the runtime's lock
		// themselves; this handler must not hold it (see telemetry.go).
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		l.tel.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(l.tel.Registry.Snapshot())
	})
	return mux
}

// queryInt parses the non-negative integer query parameter key,
// returning def when it is absent. A malformed or negative value is
// answered with 400 "bad <key>" and ok=false.
func queryInt(w http.ResponseWriter, r *http.Request, key string, def int) (v int, ok bool) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		http.Error(w, "bad "+key, http.StatusBadRequest)
		return 0, false
	}
	return v, true
}
