package core

import (
	"testing"

	"artmem/internal/telemetry"
)

// The overhead budget: the fully instrumented System (every pull metric
// registered, decision trace live) must stay within ~5% of the
// uninstrumented access hot path on AccessBatch. The instrumentation is
// pull-based — scrape-time closures plus five plain per-class latency
// counters inside the machine — so the hot path pays no atomics.
// Compare:
//
//	go test -bench AccessBatch -benchtime 2s ./internal/core/
//
// BenchmarkAccessBatch            the instrumented default
// BenchmarkAccessBatchPageTrace   page-lifecycle tracing at the default
//                                 1/64 sampling rate (must be in noise)
// BenchmarkAccessBatchPageTraceAll  tracing every page (rate 1)

func benchBatch() ([]uint64, []bool) {
	const n = 1024
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		addrs[i] = uint64(i*4099*64*1024) % (64 * 64 * 1024)
		writes[i] = i%7 == 0
	}
	return addrs, writes
}

func BenchmarkAccessBatch(b *testing.B) {
	s := NewSystem(testSystemConfig())
	addrs, writes := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessBatch(addrs, writes)
	}
}

func BenchmarkAccessBatchPageTrace(b *testing.B) {
	cfg := testSystemConfig()
	cfg.PageTraceSampleRate = telemetry.DefaultPageSampleRate
	s := NewSystem(cfg)
	addrs, writes := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessBatch(addrs, writes)
	}
}

func BenchmarkAccessBatchPageTraceAll(b *testing.B) {
	cfg := testSystemConfig()
	cfg.PageTraceSampleRate = 1
	s := NewSystem(cfg)
	addrs, writes := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessBatch(addrs, writes)
	}
}
