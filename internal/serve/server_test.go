package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// listenLoopback binds an ephemeral loopback port.
func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// dialLoopback opens a raw connection for protocol-abuse tests.
func dialLoopback(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// fakeBackend records every call for coalescing/ordering assertions.
type fakeBackend struct {
	mu    sync.Mutex
	slots int
	err   map[int]error // Check result per slot
	calls []string      // "access:n", "alloc:addr:size", "free:addr:size"
	addrs []uint64      // all access addrs in apply order
}

func newFakeBackend(slots int) *fakeBackend {
	return &fakeBackend{slots: slots, err: map[int]error{}}
}

func (b *fakeBackend) Slots() int { return b.slots }

func (b *fakeBackend) Check(slot int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err[slot]
}

func (b *fakeBackend) setErr(slot int, err error) {
	b.mu.Lock()
	b.err[slot] = err
	b.mu.Unlock()
}

func (b *fakeBackend) AccessBatch(slot int, addrs []uint64, writes []bool) {
	b.mu.Lock()
	b.calls = append(b.calls, fmt.Sprintf("access:%d", len(addrs)))
	b.addrs = append(b.addrs, addrs...)
	b.mu.Unlock()
}

func (b *fakeBackend) AllocRange(slot int, addr, size uint64) int {
	b.mu.Lock()
	b.calls = append(b.calls, fmt.Sprintf("alloc:%d:%d", addr, size))
	b.mu.Unlock()
	return 1
}

func (b *fakeBackend) FreeRange(slot int, addr, size uint64) int {
	b.mu.Lock()
	b.calls = append(b.calls, fmt.Sprintf("free:%d:%d", addr, size))
	b.mu.Unlock()
	return 1
}

func (b *fakeBackend) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.calls...)
}

func accessRecs(n int, base uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Op: OpAccess, Addr: base + uint64(i)*4096}
	}
	return recs
}

// TestServerCoalescing pins that queued batches merge into one backend
// AccessBatch pass per pump, and that results carry per-batch counts.
func TestServerCoalescing(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb})
	var results []Result
	for seq := uint64(1); seq <= 3; seq++ {
		err := s.Submit(0, seq, accessRecs(10, seq<<20), func(r Result) {
			results = append(results, r)
		})
		if err != nil {
			t.Fatalf("Submit seq %d: %v", seq, err)
		}
	}
	if got := s.QueuedRecords(0); got != 30 {
		t.Fatalf("QueuedRecords = %d, want 30", got)
	}
	if n := s.Pump(0); n != 3 {
		t.Fatalf("Pump retired %d batches, want 3", n)
	}
	if calls := fb.snapshot(); len(calls) != 1 || calls[0] != "access:30" {
		t.Fatalf("backend calls = %v, want one coalesced access:30", calls)
	}
	if len(results) != 3 {
		t.Fatalf("done callbacks = %d, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Count != 10 {
			t.Fatalf("result %d = %+v, want 10 records acked", i, r)
		}
	}
	if got := s.QueuedRecords(0); got != 0 {
		t.Fatalf("QueuedRecords after pump = %d, want 0", got)
	}
}

// TestServerCoalesceCap pins the cap: one pump takes whole batches up
// to CoalesceRecords but always at least one batch.
func TestServerCoalesceCap(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb, CoalesceRecords: 25})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Submit(0, seq, accessRecs(10, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Pump(0); n != 2 { // 10+10 fits, +10 would exceed 25
		t.Fatalf("first pump retired %d, want 2", n)
	}
	if n := s.Pump(0); n != 1 {
		t.Fatalf("second pump retired %d, want 1", n)
	}
	// An oversized single batch still pumps (at least one batch rule).
	if err := s.Submit(0, 4, accessRecs(40, 0), nil); err != nil {
		t.Fatal(err)
	}
	if n := s.Pump(0); n != 1 {
		t.Fatalf("oversized pump retired %d, want 1", n)
	}
}

// TestServerOrderingBarriers pins that alloc/free records flush the
// pending access run first, preserving client op order.
func TestServerOrderingBarriers(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb})
	recs := []Record{
		{Op: OpAccess, Addr: 1},
		{Op: OpAccess, Addr: 2},
		{Op: OpAlloc, Addr: 100, Size: 8192},
		{Op: OpAccess, Addr: 3},
		{Op: OpFree, Addr: 100, Size: 4096},
	}
	if err := s.Submit(0, 1, recs, nil); err != nil {
		t.Fatal(err)
	}
	// A following pure-access batch coalesces after the free.
	if err := s.Submit(0, 2, accessRecs(2, 1000), nil); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	want := []string{"access:2", "alloc:100:8192", "access:1", "free:100:4096", "access:2"}
	got := fb.snapshot()
	if len(got) != len(want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestServerAdmissionControl pins the shed-at-boundary contract: the
// queue never exceeds QueueRecords, overflowing batches shed with
// ErrOverloaded and their done callback never fires, and an oversized
// batch is still admitted to an empty queue.
func TestServerAdmissionControl(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb, QueueRecords: 100})
	var fired int
	done := func(Result) { fired++ }
	if err := s.Submit(0, 1, accessRecs(60, 0), done); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(0, 2, accessRecs(40, 0), done); err != nil {
		t.Fatal(err)
	}
	err := s.Submit(0, 3, accessRecs(1, 0), done)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow Submit err = %v, want ErrOverloaded", err)
	}
	if CodeFromError(err) != CodeOverloaded {
		t.Fatalf("CodeFromError = %d, want CodeOverloaded", CodeFromError(err))
	}
	if got := s.QueuedRecords(0); got > 100 {
		t.Fatalf("queue %d records exceeds cap 100", got)
	}
	s.Pump(0)
	if fired != 2 {
		t.Fatalf("done fired %d times, want 2 (shed batch must not resolve)", fired)
	}
	// Empty-queue exception: a batch larger than the cap still admits.
	if err := s.Submit(0, 4, accessRecs(200, 0), done); err != nil {
		t.Fatalf("oversized batch on empty queue: %v", err)
	}
	s.Pump(0)
	if fired != 3 {
		t.Fatalf("done fired %d times, want 3", fired)
	}
}

// TestServerPumpTimeRecheck pins that a batch queued for a slot that
// stops accepting work before its pump is rejected, not applied.
func TestServerPumpTimeRecheck(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb})
	var res Result
	if err := s.Submit(0, 1, accessRecs(5, 0), func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	fb.setErr(0, ErrDraining) // tenant starts draining while queued
	if n := s.Pump(0); n != 1 {
		t.Fatalf("Pump retired %d, want 1", n)
	}
	if !errors.Is(res.Err, ErrDraining) {
		t.Fatalf("result err = %v, want ErrDraining", res.Err)
	}
	if calls := fb.snapshot(); len(calls) != 0 {
		t.Fatalf("backend saw %v, want nothing (batch rejected at pump)", calls)
	}
}

// TestServerSubmitRefusals pins the at-the-door errors.
func TestServerSubmitRefusals(t *testing.T) {
	fb := newFakeBackend(2)
	fb.setErr(1, ErrBadTenant)
	s := NewServer(Config{Backend: fb})
	if err := s.Submit(5, 1, nil, nil); !errors.Is(err, ErrBadTenant) {
		t.Fatalf("out-of-range slot err = %v", err)
	}
	if err := s.Submit(1, 1, nil, nil); !errors.Is(err, ErrBadTenant) {
		t.Fatalf("backend-refused slot err = %v", err)
	}
	s.Drain()
	if err := s.Submit(0, 1, nil, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain err = %v, want ErrDraining", err)
	}
}

// TestServerDrainAirtight floods a started server from many goroutines
// while draining and pins the accounting identity: every batch either
// refused at Submit or resolved by exactly one done callback — none
// dropped, none double-resolved.
func TestServerDrainAirtight(t *testing.T) {
	fb := newFakeBackend(4)
	s := NewServer(Config{Backend: fb, QueueRecords: 1 << 20})
	s.Start()
	const (
		writers = 8
		perW    = 200
	)
	var (
		refused, resolved int64
		mu                sync.Mutex
		wg                sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				err := s.Submit(w%4, uint64(i), accessRecs(3, 0), func(Result) {
					mu.Lock()
					resolved++
					mu.Unlock()
				})
				if err != nil {
					mu.Lock()
					refused++
					mu.Unlock()
				}
				if i == perW/2 && w == 0 {
					// One writer triggers the drain mid-flood.
					s.Drain()
				}
			}
		}(w)
	}
	wg.Wait()
	s.Drain() // idempotent; also the barrier for the last resolutions
	mu.Lock()
	defer mu.Unlock()
	if refused+resolved != writers*perW {
		t.Fatalf("refused %d + resolved %d != submitted %d",
			refused, resolved, writers*perW)
	}
	if resolved == 0 {
		t.Fatal("nothing resolved before drain — test lost its teeth")
	}
}

// throttleBackend wraps a Backend, slowing every access pass so queues
// actually fill under load.
type throttleBackend struct {
	Backend
	delay time.Duration
}

func (b throttleBackend) AccessBatch(slot int, addrs []uint64, writes []bool) {
	time.Sleep(b.delay)
	b.Backend.AccessBatch(slot, addrs, writes)
}

// TestServeLoopbackE2E is the end-to-end demo pin: a real TCP loopback
// server, 64 concurrent clients replaying a workload trace, zero lost
// batches, ledger identity Sent = Acked + Shed.
func TestServeLoopbackE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short")
	}
	// Queue cap above the worst-case in-flight records
	// (clients × window × batch = 64·8·256) so no batch can shed and the
	// zero-shed assertion below is deterministic, not timing-dependent.
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096, QueueRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	rep, err := Run(LoadConfig{
		Addr:     lb.Addr(),
		Clients:  64,
		Workload: "YCSB",
		Div:      4096,
		Accesses: 2000,
		Batch:    256,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d batches, want 0\n%s", rep.Lost, rep)
	}
	if rep.Sent != rep.Acked+rep.Shed {
		t.Fatalf("ledger broken: sent %d != acked %d + shed %d",
			rep.Sent, rep.Acked, rep.Shed)
	}
	wantBatches := uint64(64 * (2000 / 256))
	if rep.Sent < wantBatches {
		t.Fatalf("sent %d batches, want >= %d", rep.Sent, wantBatches)
	}
	if rep.Shed != 0 {
		t.Fatalf("unloaded server shed %d batches, want 0", rep.Shed)
	}
	if rep.AckedRecords != uint64(64*2000) {
		t.Fatalf("acked %d records, want %d", rep.AckedRecords, 64*2000)
	}
	if rep.P99 <= 0 || rep.AccessesPerSec <= 0 {
		t.Fatalf("report missing latency/throughput: %+v", rep)
	}
}

// TestServeOverloadSheds pins backpressure under a deliberately slow
// backend with a tiny queue: batches shed with CodeOverloaded, nothing
// is lost, and queue memory stays bounded.
func TestServeOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("overload e2e in -short")
	}
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096, QueueRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	// Re-wrap the running server's backend: not possible after the fact,
	// so instead drive a second server on the same runtime with the
	// throttled backend.
	slow := NewServer(Config{
		Backend:      throttleBackend{NewSystemBackend(lb.Sys), 2 * time.Millisecond},
		QueueRecords: 512,
	})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- slow.Serve(ln) }()
	defer func() { slow.Shutdown(); <-served }()

	rep, err := Run(LoadConfig{
		Addr:     ln.Addr().String(),
		Clients:  8,
		Workload: "YCSB",
		Div:      4096,
		Accesses: 4000,
		Batch:    256,
		Window:   16,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d batches under overload, want 0\n%s", rep.Lost, rep)
	}
	if rep.Shed == 0 {
		t.Fatal("slow backend shed nothing — overload path untested")
	}
	if rep.Sent != rep.Acked+rep.Shed {
		t.Fatalf("ledger broken: sent %d != acked %d + shed %d",
			rep.Sent, rep.Acked, rep.Shed)
	}
}

// TestServeRetryDeliversAll pins retry mode: with backpressure retries
// on, every record eventually applies even against a throttled server.
func TestServeRetryDeliversAll(t *testing.T) {
	if testing.Short() {
		t.Skip("retry e2e in -short")
	}
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	slow := NewServer(Config{
		Backend:      throttleBackend{NewSystemBackend(lb.Sys), time.Millisecond},
		QueueRecords: 512,
	})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- slow.Serve(ln) }()
	defer func() { slow.Shutdown(); <-served }()

	const clients, accesses = 4, 2048
	rep, err := Run(LoadConfig{
		Addr:     ln.Addr().String(),
		Clients:  clients,
		Workload: "YCSB",
		Div:      4096,
		Accesses: accesses,
		Batch:    256,
		Window:   8,
		Seed:     3,
		Retry:    true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d batches, want 0", rep.Lost)
	}
	if rep.AckedRecords != uint64(clients*accesses) {
		t.Fatalf("retry mode applied %d records, want %d (shed %d)",
			rep.AckedRecords, clients*accesses, rep.Shed)
	}
}

// TestServeShutdownRefusesNewStreams pins the drain handshake: a
// draining server answers Hello with CodeDraining.
func TestServeShutdownRefusesNewStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("network test in -short")
	}
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096})
	if err != nil {
		t.Fatal(err)
	}
	addr := lb.Addr()
	lb.Stop()
	if _, err := Dial(addr, ClientConfig{}); err == nil {
		t.Fatal("Dial succeeded against a stopped server")
	}
}

// TestServeBadTenantHandshake pins the handshake refusal for a slot the
// backend does not serve.
func TestServeBadTenantHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("network test in -short")
	}
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	_, err = Dial(lb.Addr(), ClientConfig{Tenant: 9})
	if err == nil {
		t.Fatal("Dial with bad tenant succeeded")
	}
}

// TestServeGarbageConnection pins that a connection sending garbage is
// rejected and dropped without disturbing the server (which then still
// serves a well-behaved client).
func TestServeGarbageConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("network test in -short")
	}
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	nc, err := dialLoopback(lb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff})
	buf := make([]byte, 256)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	nc.Read(buf) // server answers (hello ack or reject) then closes
	nc.Close()

	cl, err := Dial(lb.Addr(), ClientConfig{})
	if err != nil {
		t.Fatalf("clean client after garbage one: %v", err)
	}
	if _, err := cl.SendAccessBatch([]uint64{0}, []bool{false}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Close()
	if err != nil || st.Acked != 1 {
		t.Fatalf("post-garbage stream: stats %+v err %v", st, err)
	}
}
