package pebs

import (
	"math/rand/v2"
	"testing"

	"artmem/internal/memsim"
)

// ringSampler is the sampler with a circular ring buffer (head and count
// advanced modulo the ring size), kept as the reference the
// refill-from-zero buffer must agree with.
type ringSampler struct {
	period, counter uint64
	ring            []Sample
	head, count     int

	dropped, injectedDrops, total uint64
	winFast, winSlow              uint64
	injector                      Injector
}

func (s *ringSampler) OnMiss(page memsim.PageID, tier memsim.TierID, write bool, now int64) {
	s.counter++
	if s.counter < s.period {
		return
	}
	s.counter = 0
	if s.injector != nil && s.injector.DropSample(now) {
		s.injectedDrops++
		return
	}
	if tier == memsim.Fast {
		s.winFast++
	} else {
		s.winSlow++
	}
	s.total++
	if s.count == len(s.ring) || (s.injector != nil && s.injector.RingOverflow(now)) {
		s.dropped++
		return
	}
	s.ring[s.head] = Sample{Page: page, Tier: tier, Write: write, Time: now}
	s.head = (s.head + 1) % len(s.ring)
	s.count++
}

func (s *ringSampler) Drain(fn func(Sample)) int {
	n := s.count
	idx := s.head - s.count
	if idx < 0 {
		idx += len(s.ring)
	}
	for i := 0; i < n; i++ {
		fn(s.ring[idx])
		idx = (idx + 1) % len(s.ring)
	}
	s.count = 0
	return n
}

// randInjector drops or overflows samples at random from its own seed,
// so two samplers consulting equal injectors in the same order see the
// same faults.
type randInjector struct{ rng *rand.Rand }

func newRandInjector(seed uint64) *randInjector {
	return &randInjector{rand.New(rand.NewPCG(seed, 7))}
}

func (r *randInjector) DropSample(int64) bool   { return r.rng.IntN(8) == 0 }
func (r *randInjector) RingOverflow(int64) bool { return r.rng.IntN(8) == 0 }

// The refill-from-zero buffer records, orders, drops and counts exactly
// like the circular ring on random OnMiss/Drain/injector sequences, at
// sampling periods 1 to 3.
func TestBufferMatchesRing(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		size := 1 + rng.IntN(9)
		period := 1 + uint64(rng.IntN(3))
		s := New(Config{Period: period, RingSize: size})
		ref := &ringSampler{period: period, ring: make([]Sample, size)}
		var got, want []Sample
		for op := 0; op < 3000; op++ {
			switch r := rng.IntN(95); {
			case r < 80:
				page := memsim.PageID(rng.IntN(1000))
				tier := memsim.TierID(rng.IntN(2))
				write := rng.IntN(2) == 0
				s.OnMiss(page, tier, write, int64(op))
				ref.OnMiss(page, tier, write, int64(op))
			case r < 90:
				got, want = got[:0], want[:0]
				n := s.Drain(func(smp Sample) { got = append(got, smp) })
				m := ref.Drain(func(smp Sample) { want = append(want, smp) })
				if n != m || len(got) != len(want) {
					t.Fatalf("seed %d op %d: drained %d (%d delivered), ring drained %d", seed, op, n, len(got), m)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: sample %d = %+v, ring has %+v", seed, op, i, got[i], want[i])
					}
				}
			case r < 92:
				if rng.IntN(2) == 0 {
					s.SetInjector(nil)
					ref.injector = nil
				} else {
					is := rng.Uint64()
					s.SetInjector(newRandInjector(is))
					ref.injector = newRandInjector(is)
				}
			default:
				f, sl := s.WindowCounts()
				if f != ref.winFast || sl != ref.winSlow {
					t.Fatalf("seed %d op %d: window %d/%d, ring %d/%d", seed, op, f, sl, ref.winFast, ref.winSlow)
				}
				ref.winFast, ref.winSlow = 0, 0
			}
			st := s.Stats()
			if st.Taken != ref.total || st.Dropped != ref.dropped || st.InjectedDrops != ref.injectedDrops ||
				st.Pending != ref.count || st.Period != ref.period {
				t.Fatalf("seed %d op %d: stats %+v, ring taken %d dropped %d injected %d pending %d period %d",
					seed, op, st, ref.total, ref.dropped, ref.injectedDrops, ref.count, ref.period)
			}
			if f, sl := s.PeekWindowCounts(); f != ref.winFast || sl != ref.winSlow {
				t.Fatalf("seed %d op %d: window %d/%d, ring %d/%d", seed, op, f, sl, ref.winFast, ref.winSlow)
			}
		}
	}
}

// A Drain whose callback panics has already emptied the buffer: the
// next Drain delivers only samples recorded after it, so no sample is
// counted twice by a pass the control loop recovered.
func TestDrainNeverRedeliversAfterPanic(t *testing.T) {
	s := New(Config{Period: 1, RingSize: 16})
	for i := 0; i < 5; i++ {
		s.OnMiss(memsim.PageID(i), memsim.Fast, false, int64(i))
	}
	var seen []memsim.PageID
	func() {
		defer func() { _ = recover() }()
		s.Drain(func(smp Sample) {
			seen = append(seen, smp.Page)
			if len(seen) == 3 {
				panic("pass fails on the third sample")
			}
		})
	}()
	if len(seen) != 3 {
		t.Fatalf("panicking drain delivered %v, want three samples", seen)
	}
	if s.Stats().Pending != 0 {
		t.Errorf("Pending = %d after the panicking drain, want 0", s.Stats().Pending)
	}
	s.OnMiss(100, memsim.Slow, true, 10)
	var again []memsim.PageID
	s.Drain(func(smp Sample) { again = append(again, smp.Page) })
	if len(again) != 1 || again[0] != 100 {
		t.Errorf("next drain delivered %v, want only the new page 100", again)
	}
}

// BenchmarkSamplerDrain records about as many samples as one sampling
// period of a replay cell collects (7,400) and drains them.
func BenchmarkSamplerDrain(b *testing.B) {
	const perPeriod = 7400
	s := New(Config{Period: 1})
	var sum memsim.PageID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < perPeriod; j++ {
			s.OnMiss(memsim.PageID(j), memsim.Slow, false, int64(j))
		}
		s.Drain(func(smp Sample) { sum += smp.Page })
	}
	_ = sum
}
