package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/serve"
	"artmem/internal/telemetry"
	"artmem/internal/tenancy"
	"artmem/internal/workloads"
)

// jsonError writes a control-plane error as the pinned JSON schema
// {"error": ..., "code": ...} with the given HTTP status. code is a
// stable machine-readable token (see tenancy.ErrorCode for the plane's
// backpressure vocabulary).
func jsonError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// multiMain is artmemd's multi-tenant mode: one tenant per listed
// workload on a shared machine, each with its own RL agent, under the
// fast-tier arbiter. The machine is sized as `capacity` equal slot
// regions (each big enough for the largest listed workload), so tenants
// registered at runtime through POST /register get their own address
// region and replay alongside the initial set; POST /deregister retires
// a tenant through the plane's transactional reclamation. The control
// plane (including /tenants) is served on the same listen address the
// single-tenant daemon uses.
func multiMain(tenantList, arbMode string, prof workloads.Profile, fast, slow, capacity int,
	listen, serveAddr string, spanRate int, drain time.Duration, build telemetry.BuildInfo) {
	var mode tenancy.Mode
	switch arbMode {
	case "off":
		mode = tenancy.ModeOff
	case "static":
		mode = tenancy.ModeStatic
	case "dynamic":
		mode = tenancy.ModeDynamic
	default:
		fatal(fmt.Errorf("bad -arbiter %q: want off, static, or dynamic", arbMode))
	}

	names := strings.Split(tenantList, ",")
	specs := make([]workloads.Spec, len(names))
	tenants := make([]core.TenantConfig, len(names))
	var slotBytes int64
	for i, name := range names {
		name = strings.TrimSpace(name)
		names[i] = name
		spec, err := workloads.ByName(name)
		if err != nil {
			fatal(err)
		}
		specs[i] = spec
		probe := spec.New(prof)
		foot := probe.FootprintBytes()
		probe.Close()
		if foot > slotBytes {
			slotBytes = foot
		}
		weight := int(foot / prof.PageSize())
		if weight < 1 {
			weight = 1
		}
		tenants[i] = core.TenantConfig{
			Name:   name,
			Weight: weight,
			Policy: core.Config{Seed: prof.Seed + uint64(i)},
		}
	}
	if capacity < len(names) {
		capacity = len(names)
	}
	if slotBytes < prof.PageSize() {
		slotBytes = prof.PageSize()
	}

	foot := slotBytes * int64(capacity)
	mcfg := memsim.DefaultConfig(foot, ratioFastBytes(foot, prof.PageSize(), fast, slow), prof.PageSize())
	sys := core.NewMultiSystem(core.MultiSystemConfig{
		Machine:           mcfg,
		Tenants:           tenants,
		Capacity:          capacity,
		Arbiter:           tenancy.ArbiterConfig{Mode: mode, Admission: mode != tenancy.ModeOff},
		SamplingInterval:  time.Millisecond,
		MigrationInterval: 10 * time.Millisecond,
	})
	telemetry.RegisterRuntimeMetrics(sys.Telemetry().Registry)
	sys.Start()
	defer sys.Stop()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	rep := &replaySet{sys: sys, prof: prof, slotBytes: slotBytes}
	for i := range names {
		rep.entries = append(rep.entries, &replayEntry{
			slot: i, name: names[i], spec: specs[i], w: specs[i].New(prof),
		})
	}

	mux := http.NewServeMux()
	mux.Handle("/", sys.ControlHandler())
	// Serving observability: one SLO slot per tenant slot, batch class
	// by default — /register?class=latency tightens the new tenant's
	// objective (handleRegister).
	var obs serveObs
	if serveAddr != "" {
		objectives := make([]telemetry.SLOObjective, capacity)
		for i := range objectives {
			objectives[i] = telemetry.BatchSLO()
		}
		obs = newServeObs(spanRate, objectives)
		rep.slo = obs.slo
	}
	obs.mount(mux)
	mux.HandleFunc("/register", rep.handleRegister)
	mux.HandleFunc("/deregister", rep.handleDeregister)
	srv := serveHTTP(listen, mux)

	// The batched streaming access API over the tenant slots: remote
	// clients address their slot region from 0, the backend rebases.
	var accessSrv *serve.Server
	if serveAddr != "" {
		accessSrv = serve.NewServer(serve.Config{
			Backend:  serve.NewMultiBackend(sys, slotBytes),
			Registry: sys.Telemetry().Registry,
			Spans:    obs.spans,
			StallNs:  sys.ControlBusyNs,
			SLO:      obs.slo,
		})
		go protect("serve", func() {
			if err := accessSrv.ListenAndServe(serveAddr); err != nil {
				fatal(fmt.Errorf("serve: %w", err))
			}
		})
		fmt.Printf("artmemd: streaming access API on %s (drive it with artload -tenant N)\n", serveAddr)
	}

	fmt.Printf("artmemd: build %s\n", build)
	fmt.Printf("artmemd: %d/%d tenant slots filled (%s), arbiter %s, admission=%v\n",
		len(names), capacity, strings.Join(names, ","), mode, mode != tenancy.ModeOff)
	fmt.Printf("artmemd: serving control plane on http://%s (/tenants, /stats, /metrics, /metrics.json, /trace)\n", listen)
	fmt.Printf("artmemd: tenant lifecycle at POST /register?workload=NAME[&name=..&weight=..&class=latency] and POST /deregister?slot=N[&handoff=M][&crash=1]\n")
	fmt.Printf("artmemd: replaying %d MB machine (%d slots x %d MB) at %d:%d in a loop; SIGINT/SIGTERM to stop\n",
		foot>>20, capacity, slotBytes>>20, fast, slow)

loop:
	for {
		select {
		case <-stop:
			break loop
		default:
		}
		if !rep.step() {
			// No resident tenants: wait for a registration or a signal.
			time.Sleep(10 * time.Millisecond)
		}
	}

	sys.SetDraining(true)
	if accessSrv != nil {
		accessSrv.Shutdown()
	}
	shutdownHTTP(srv, drain)
	sys.Stop()
	fmt.Println("artmemd: stopped")
}

// replayEntry is one resident tenant's replay state.
type replayEntry struct {
	slot    int
	name    string
	spec    workloads.Spec
	w       workloads.Workload
	replays int
}

// replaySet round-robins batches across the resident tenants' workloads
// and applies HTTP lifecycle requests between batches. The mutex spans
// each AccessBatch, so registration and deregistration never race a
// departing tenant's in-flight accesses.
type replaySet struct {
	mu        sync.Mutex
	sys       *core.MultiSystem
	prof      workloads.Profile
	slotBytes int64
	entries   []*replayEntry
	turn      int
	regSeq    uint64
	// slo, when non-nil, tracks per-slot objectives for the serving SLO
	// monitor; registration installs the admitted tenant's class.
	slo *telemetry.SLOMonitor
}

// step replays one batch of the next resident tenant, looping exhausted
// workloads in place. Returns false when no tenant is resident. Panics
// are recovered as in the single-tenant replay.
func (rs *replaySet) step() (progressed bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "artmemd: replay panicked (recovered): %v\n", r)
			progressed = true
		}
	}()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.entries) == 0 {
		return false
	}
	rs.turn %= len(rs.entries)
	e := rs.entries[rs.turn]
	rs.turn++
	b, ok := e.w.Next()
	if !ok {
		e.w.Close()
		e.w = e.spec.New(rs.prof)
		e.replays++
		tc := rs.sys.TenantCounters(e.slot)
		fmt.Printf("tenant %s (slot %d) replay %d done: ratio=%.3f promo=%d\n",
			e.name, e.slot, e.replays, tc.DRAMRatio(), tc.Promotions)
		return true
	}
	off := uint64(e.slot) * uint64(rs.slotBytes)
	addrs := make([]uint64, len(b))
	writes := make([]bool, len(b))
	for i, a := range b {
		addrs[i] = a.Addr + off
		writes[i] = a.Write
	}
	rs.sys.AccessBatch(e.slot, addrs, writes)
	return true
}

// handleRegister admits a tenant at runtime: POST /register?workload=
// NAME[&name=LABEL][&weight=W][&class=latency|batch]. The workload must
// fit one slot region; admission control (plane full, arrival
// backpressure) maps to 503 with the error in the body.
func (rs *replaySet) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	wlName := r.FormValue("workload")
	spec, err := workloads.ByName(wlName)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	name := r.FormValue("name")
	if name == "" {
		name = wlName
	}
	weight := 0
	if v := r.FormValue("weight"); v != "" {
		if weight, err = strconv.Atoi(v); err != nil || weight < 1 {
			jsonError(w, http.StatusBadRequest, "bad_request", "bad weight")
			return
		}
	}
	var class tenancy.SLOClass
	switch r.FormValue("class") {
	case "", "batch":
		class = tenancy.ClassBatch
	case "latency":
		class = tenancy.ClassLatency
	default:
		jsonError(w, http.StatusBadRequest, "bad_request", "bad class: want latency or batch")
		return
	}

	rs.mu.Lock()
	defer rs.mu.Unlock()
	probe := spec.New(rs.prof)
	foot := probe.FootprintBytes()
	probe.Close()
	if foot > rs.slotBytes {
		jsonError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("workload footprint %d exceeds slot region %d", foot, rs.slotBytes))
		return
	}
	if weight == 0 {
		weight = int(foot / rs.prof.PageSize())
		if weight < 1 {
			weight = 1
		}
	}
	rs.regSeq++
	slot, err := rs.sys.RegisterTenant(core.TenantConfig{
		Name:   name,
		Weight: weight,
		Class:  class,
		Policy: core.Config{Seed: rs.prof.Seed + 1000 + rs.regSeq},
	})
	if err != nil {
		jsonError(w, http.StatusServiceUnavailable, tenancy.ErrorCode(err), err.Error())
		return
	}
	rs.entries = append(rs.entries, &replayEntry{
		slot: slot, name: name, spec: spec, w: spec.New(rs.prof),
	})
	if rs.slo != nil {
		obj := telemetry.BatchSLO()
		if class == tenancy.ClassLatency {
			obj = telemetry.LatencySLO()
		}
		rs.slo.SetObjective(slot, obj)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"slot": slot, "name": name, "workload": wlName})
}

// handleDeregister retires a tenant: POST /deregister?slot=N[&handoff=M]
// [&crash=1]. An interrupted reclamation still succeeds from the
// client's view — the slot is left draining and the migration thread
// retries each period.
func (rs *replaySet) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	slot, err := strconv.Atoi(r.FormValue("slot"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad_request", "bad slot")
		return
	}
	handoff := -1
	if v := r.FormValue("handoff"); v != "" {
		if handoff, err = strconv.Atoi(v); err != nil {
			jsonError(w, http.StatusBadRequest, "bad_request", "bad handoff")
			return
		}
	}
	crash := r.FormValue("crash") != ""

	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, e := range rs.entries {
		if e.slot == slot {
			e.w.Close()
			rs.entries = append(rs.entries[:i], rs.entries[i+1:]...)
			break
		}
	}
	if crash {
		err = rs.sys.CrashTenant(slot, handoff)
	} else {
		err = rs.sys.DeregisterTenant(slot, handoff)
	}
	state := "empty"
	if errors.Is(err, tenancy.ErrReclaimInterrupted) {
		state, err = "draining", nil
	}
	if err != nil {
		jsonError(w, http.StatusConflict, tenancy.ErrorCode(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"slot": slot, "state": state, "crash": crash})
}
