package serve

import (
	"testing"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/tier"
	"artmem/internal/workloads"
)

// TestServeChainSystem serves a System on a non-exclusive 3-tier chain
// — one agent per boundary — through the unchanged single-tenant
// backend: several loopback clients stream a workload, the server
// drains, and every batch must resolve exactly once (acked or shed,
// none lost), the machine's invariants must hold, and the boundary
// agents must have run and migrated.
func TestServeChainSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short")
	}
	const div = 4096
	prof := workloads.Profile{Div: div, PatternAccesses: 1, AppAccesses: 1, Seed: 1}
	spec, err := workloads.ByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	probe := spec.New(prof)
	foot := probe.FootprintBytes()
	probe.Close()
	ch, err := tier.ParseChain("DRAM:cap=16/CXL:cap=16/PM")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := memsim.DefaultConfig(foot, 0, prof.PageSize())
	mcfg.Chain = ch
	mcfg.NonExclusive = true
	sys := core.NewSystem(core.SystemConfig{
		Machine:           mcfg,
		Policy:            core.Config{SamplePeriod: 1},
		SamplingInterval:  500 * time.Microsecond,
		MigrationInterval: time.Millisecond,
	})
	if sys.NumBoundaries() != 2 {
		t.Fatalf("chain system runs %d boundary agents, want 2", sys.NumBoundaries())
	}
	sys.Start()
	defer sys.Stop()

	srv := NewServer(Config{
		Backend:      NewSystemBackend(sys),
		Registry:     sys.Telemetry().Registry,
		StallNs:      sys.ControlBusyNs,
		QueueRecords: 1 << 20,
	})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	rep, err := Run(LoadConfig{
		Addr:     ln.Addr().String(),
		Clients:  4,
		Workload: "YCSB",
		Div:      div,
		Accesses: 50000,
		Batch:    256,
		Seed:     3,
	})
	srv.Shutdown()
	if serveErr := <-served; serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Lost != 0 || rep.Sent != rep.Acked+rep.Shed {
		t.Fatalf("batches not resolved exactly once: sent %d, acked %d, shed %d, lost %d",
			rep.Sent, rep.Acked, rep.Shed, rep.Lost)
	}
	if rep.AckedRecords == 0 {
		t.Fatal("no records applied")
	}
	sys.Stop()
	m := sys.Machine()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("machine invariants after the drain: %v", err)
	}
	// Both boundary agents run every decision period. Only the lower
	// boundary is required to migrate: once first touch has filled the
	// middle tier, boundary 0 has nowhere to demote into, and its
	// periods stop at the full tier.
	for b := 0; b < 2; b++ {
		if sys.Agent(b).Decisions() == 0 {
			t.Errorf("boundary %d agent made no decisions", b)
		}
	}
	if st := m.BoundaryStatsAt(1); st.Promotions == 0 {
		t.Errorf("boundary CXL|PM never promoted: %+v", st)
	}
}
