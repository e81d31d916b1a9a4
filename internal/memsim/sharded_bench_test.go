package memsim

import (
	"fmt"
	"testing"
)

// benchShardCfg sizes a machine large enough that shard state does not
// all fit in one cache line's worth of hot pages: 64Ki pages of 4KiB.
func benchShardCfg() Config {
	cfg := DefaultConfig(1<<28, 1<<27, 4096)
	cfg.CacheLines = 1 << 14
	return cfg
}

// benchBatch is one pre-generated access batch replayed per iteration.
const benchBatch = 1 << 16

// BenchmarkAccessShardedSerial pins the sharding tax: the same batch
// through a bare Machine, a one-shard machine (no translation), and an
// 8-shard machine (page routing and address translation).
func BenchmarkAccessShardedSerial(b *testing.B) {
	cfg := benchShardCfg()
	addrs, writes := stream(11, benchBatch, uint64(cfg.FootprintBytes))
	b.Run("machine", func(b *testing.B) {
		m := NewMachine(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, a := range addrs {
				m.Access(a, writes[j])
			}
		}
		b.StopTimer()
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / benchBatch
		b.ReportMetric(perOp, "ns/access")
	})
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("sharded=%d", shards), func(b *testing.B) {
			sm := NewShardedMachine(cfg, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, a := range addrs {
					sm.Access(a, writes[j])
				}
			}
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / benchBatch
			b.ReportMetric(perOp, "ns/access")
		})
	}
}
