package serve

import (
	"testing"

	"artmem/internal/telemetry"
)

// BenchmarkServeDecode measures the decoder on a full 4096-record
// access batch — the wire hot path.
func BenchmarkServeDecode(b *testing.B) {
	addrs := make([]uint64, 4096)
	writes := make([]bool, 4096)
	for i := range addrs {
		addrs[i] = uint64(i) * 4096
		writes[i] = i%4 == 0
	}
	wire := AppendAccessBatch(nil, 1, addrs, writes)
	body := wire[4:]
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEncode measures the access-batch fast-path encoder.
func BenchmarkServeEncode(b *testing.B) {
	addrs := make([]uint64, 4096)
	writes := make([]bool, 4096)
	for i := range addrs {
		addrs[i] = uint64(i) * 4096
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendAccessBatch(buf[:0], uint64(i), addrs, writes)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkServeLockstep measures the server core without the network:
// Submit + Pump over a fake backend, the pure queueing/coalescing cost
// per record.
func BenchmarkServeLockstep(b *testing.B) {
	s := NewServer(Config{Backend: newFakeBenchBackend()})
	recs := accessRecs(256, 0)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Submit(0, uint64(i), recs, nil); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 {
			s.Pump(0)
		}
	}
	s.Drain()
}

// BenchmarkServeSpans measures the span-recording overhead on the
// lockstep path at three settings: journal off (the default), the
// default 1-in-64 sampling, and rate 1 (every batch). `make perf`
// records it in the perf ledger, which DESIGN.md §11 cites.
func BenchmarkServeSpans(b *testing.B) {
	cases := []struct {
		name string
		rate int
	}{
		{"off", 0},
		{"sampled64", 64},
		{"rate1", 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{Backend: newFakeBenchBackend()}
			if tc.rate > 0 {
				var stall int64
				cfg.Spans = telemetry.NewSpanJournal(0, tc.rate)
				cfg.StallNs = func() int64 { return stall }
			}
			s := NewServer(cfg)
			recs := accessRecs(256, 0)
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Submit(0, uint64(i), recs, nil); err != nil {
					b.Fatal(err)
				}
				if i%16 == 15 {
					s.Pump(0)
				}
			}
			s.Drain()
		})
	}
}

// fakeBenchBackend is a no-op backend for core-only benchmarks (the
// recording fakeBackend's string building would dominate).
type fakeBenchBackend struct{ n int }

func newFakeBenchBackend() *fakeBenchBackend { return &fakeBenchBackend{} }

func (f *fakeBenchBackend) Slots() int      { return 1 }
func (f *fakeBenchBackend) Check(int) error { return nil }
func (f *fakeBenchBackend) AccessBatch(_ int, addrs []uint64, _ []bool) {
	f.n += len(addrs)
}
func (f *fakeBenchBackend) AllocRange(int, uint64, uint64) int { return 0 }
func (f *fakeBenchBackend) FreeRange(int, uint64, uint64) int  { return 0 }

// BenchmarkServeLoopback measures the full stack end to end: one TCP
// loopback client streaming windowed access batches into a live System.
// Reported ns/op is per record (batch of 256, window 8).
func BenchmarkServeLoopback(b *testing.B) {
	lb, err := StartLoopbackCfg(LoopbackConfig{Workload: "YCSB", Div: 4096, QueueRecords: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer lb.Stop()
	cl, err := Dial(lb.Addr(), ClientConfig{ClientID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	addrs := make([]uint64, batch)
	writes := make([]bool, batch)
	for i := range addrs {
		addrs[i] = uint64(i) * 4096
	}
	b.SetBytes(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.SendAccessBatch(addrs, writes); err != nil {
			b.Fatal(err)
		}
	}
	st, err := cl.Close()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if st.Lost != 0 {
		b.Fatalf("lost %d batches", st.Lost)
	}
}
