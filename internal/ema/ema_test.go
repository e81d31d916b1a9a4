package ema

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"artmem/internal/memsim"
)

func TestBinOf(t *testing.T) {
	cases := []struct {
		count uint32
		bin   int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{15, 4}, {16, 5}, {31, 5}, {32, 6}, {1 << 20, 21},
	}
	for _, tc := range cases {
		if got := BinOf(tc.count); got != tc.bin {
			t.Errorf("BinOf(%d) = %d, want %d", tc.count, got, tc.bin)
		}
	}
	// Saturation at the top bin.
	if got := BinOf(^uint32(0)); got != NumBins-1 {
		t.Errorf("BinOf(max) = %d, want %d", got, NumBins-1)
	}
}

// loopBinOf is BinOf as a shift loop, the reference the bit-length
// kernel must agree with.
func loopBinOf(count uint32) int {
	if count == 0 {
		return 0
	}
	b := 1
	for count > 1 {
		count >>= 1
		b++
	}
	if b >= NumBins {
		return NumBins - 1
	}
	return b
}

func TestBinOfMatchesShiftLoop(t *testing.T) {
	check := func(c uint32) {
		if got, want := BinOf(c), loopBinOf(c); got != want {
			t.Errorf("BinOf(%d) = %d, shift loop says %d", c, got, want)
		}
	}
	check(0)
	for i := 0; i < 32; i++ {
		p := uint32(1) << i
		check(p - 1)
		check(p)
		check(p + 1)
	}
	check(^uint32(0))
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		check(rng.Uint32() >> rng.IntN(32))
	}
}

func TestBinLowerInvertsBinOf(t *testing.T) {
	for b := 0; b < NumBins-1; b++ {
		lo := BinLower(b)
		if got := BinOf(lo); got != b {
			t.Errorf("BinOf(BinLower(%d)=%d) = %d", b, lo, got)
		}
		if b >= 1 && lo > 1 {
			if got := BinOf(lo - 1); got != b-1 {
				t.Errorf("BinOf(%d) = %d, want %d (just below bin %d)", lo-1, got, b-1, b)
			}
		}
	}
}

func TestRecordAndBins(t *testing.T) {
	h := New(4, 0)
	if h.BinPages(0) != 4 {
		t.Fatalf("initial bin0 = %d, want 4", h.BinPages(0))
	}
	for i := 0; i < 16; i++ {
		h.Record(0)
	}
	for i := 0; i < 3; i++ {
		h.Record(1)
	}
	if h.Count(0) != 16 || BinOf(h.Count(0)) != 5 {
		t.Errorf("page 0: count=%d bin=%d, want 16/5", h.Count(0), BinOf(h.Count(0)))
	}
	if h.Count(1) != 3 || BinOf(h.Count(1)) != 2 {
		t.Errorf("page 1: count=%d bin=%d, want 3/2", h.Count(1), BinOf(h.Count(1)))
	}
	if h.BinPages(0) != 2 || h.BinPages(2) != 1 || h.BinPages(5) != 1 {
		t.Errorf("bins: %d/%d/%d", h.BinPages(0), h.BinPages(2), h.BinPages(5))
	}
	if h.TotalSamples() != 19 {
		t.Errorf("TotalSamples = %d", h.TotalSamples())
	}
}

func TestCoolingHalves(t *testing.T) {
	h := New(2, 0)
	for i := 0; i < 17; i++ {
		h.Record(0)
	}
	h.Record(1)
	h.Cool()
	if h.Count(0) != 8 || h.Count(1) != 0 {
		t.Errorf("after cool: counts %d/%d, want 8/0", h.Count(0), h.Count(1))
	}
	if BinOf(h.Count(0)) != 4 || BinOf(h.Count(1)) != 0 {
		t.Errorf("after cool: bins %d/%d, want 4/0", BinOf(h.Count(0)), BinOf(h.Count(1)))
	}
	if h.Coolings() != 1 {
		t.Errorf("Coolings = %d", h.Coolings())
	}
}

func TestAutomaticCoolingTrigger(t *testing.T) {
	h := New(1, 10)
	cooled := false
	for i := 0; i < 10; i++ {
		if h.Record(0) {
			cooled = true
			if i != 9 {
				t.Errorf("cooled at sample %d, want 9", i)
			}
		}
	}
	if !cooled {
		t.Fatal("cooling never triggered")
	}
	if h.Count(0) != 5 {
		t.Errorf("count after auto-cool = %d, want 5", h.Count(0))
	}
	// Counter must reset: next cooling after 10 more samples.
	for i := 0; i < 9; i++ {
		if h.Record(0) {
			t.Fatalf("cooled early at %d", i)
		}
	}
	if !h.Record(0) {
		t.Error("second cooling did not trigger on schedule")
	}
}

func TestPagesAtOrAbove(t *testing.T) {
	h := New(10, 0)
	// Counts: page0=20, page1=16, page2=10, page3=3, rest 0.
	for i := 0; i < 20; i++ {
		h.Record(0)
	}
	for i := 0; i < 16; i++ {
		h.Record(1)
	}
	for i := 0; i < 10; i++ {
		h.Record(2)
	}
	for i := 0; i < 3; i++ {
		h.Record(3)
	}
	cases := []struct {
		thr  uint32
		want int
	}{
		{0, 10}, {1, 4}, {3, 4}, {4, 3}, {10, 3}, {11, 2}, {16, 2},
		{17, 1}, {20, 1}, {21, 0},
	}
	for _, tc := range cases {
		if got := h.PagesAtOrAbove(tc.thr); got != tc.want {
			t.Errorf("PagesAtOrAbove(%d) = %d, want %d", tc.thr, got, tc.want)
		}
	}
}

func TestCapacityThreshold(t *testing.T) {
	h := New(100, 0)
	// 2 pages at count 32 (bin 6), 10 pages at count 8 (bin 4),
	// 50 pages at count 2 (bin 2), rest cold.
	bump := func(p memsim.PageID, n int) {
		for i := 0; i < n; i++ {
			h.Record(p)
		}
	}
	bump(0, 32)
	bump(1, 32)
	for p := memsim.PageID(2); p < 12; p++ {
		bump(p, 8)
	}
	for p := memsim.PageID(12); p < 62; p++ {
		bump(p, 2)
	}
	// Capacity 12: bins 6 (2 pages) + 4 (10 pages) fit exactly; the walk
	// then slides through empty bin 3 → threshold 4 (admits the same 12
	// pages, since nothing has a count in [4,8)).
	if got := h.CapacityThreshold(12); got != 4 {
		t.Errorf("CapacityThreshold(12) = %d, want 4", got)
	}
	// Capacity 5: bins 6 and (empty) 5 fit → threshold 16 admits just the
	// two count-32 pages.
	if got := h.CapacityThreshold(5); got != 16 {
		t.Errorf("CapacityThreshold(5) = %d, want 16", got)
	}
	// Capacity 100: everything sampled fits → threshold at bin 1 (count 1).
	if got := h.CapacityThreshold(100); got != 1 {
		t.Errorf("CapacityThreshold(100) = %d, want 1", got)
	}
	// Capacity 1: hottest bin alone overflows → its lower bound.
	if got := h.CapacityThreshold(1); got != 32 {
		t.Errorf("CapacityThreshold(1) = %d, want 32", got)
	}
}

func TestCapacityThresholdEmpty(t *testing.T) {
	h := New(10, 0)
	if got := h.CapacityThreshold(5); got != 1 {
		t.Errorf("empty histogram threshold = %d, want 1", got)
	}
}

// Property: bin page-counts always sum to the page space size, and every
// page's stored bin matches BinOf(count), under arbitrary record/cool
// sequences.
func TestBinConsistencyProperty(t *testing.T) {
	const n = 8
	f := func(ops []uint8) bool {
		h := New(n, 1<<62) // no auto-cooling; we cool explicitly
		for _, op := range ops {
			if op%16 == 15 {
				h.Cool()
			} else {
				h.Record(memsim.PageID(op) % n)
			}
		}
		sum := 0
		for b := 0; b < NumBins; b++ {
			sum += h.BinPages(b)
		}
		if sum != n {
			return false
		}
		// Cross-check PagesAtOrAbove against a direct count for a few
		// thresholds.
		for _, thr := range []uint32{0, 1, 2, 3, 5, 8, 13} {
			direct := 0
			for p := memsim.PageID(0); p < n; p++ {
				if h.Count(p) >= thr {
					direct++
				}
			}
			if h.PagesAtOrAbove(thr) != direct {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: CapacityThreshold always admits at most capacity pages,
// unless even the hottest occupied bin overflows it.
func TestCapacityThresholdBoundProperty(t *testing.T) {
	const n = 32
	f := func(counts [n]uint8, capRaw uint8) bool {
		h := New(n, 1<<62)
		for p, c := range counts {
			for i := 0; i < int(c); i++ {
				h.Record(memsim.PageID(p))
			}
		}
		capacity := int(capRaw%n) + 1
		thr := h.CapacityThreshold(capacity)
		admitted := h.PagesAtOrAbove(thr)
		if admitted <= capacity {
			return true
		}
		// Overflow allowed only in the degenerate hottest-bin case: no
		// stricter bin-aligned threshold admits anything within capacity.
		b := BinOf(thr)
		for bb := b + 1; bb < NumBins; bb++ {
			if got := h.PagesAtOrAbove(BinLower(bb)); got > 0 && got <= capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := New(1<<16, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(memsim.PageID(i & (1<<16 - 1)))
	}
}

func BenchmarkCool(b *testing.B) {
	h := New(1<<16, 0)
	for i := 0; i < 1<<20; i++ {
		h.Record(memsim.PageID(i & (1<<16 - 1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Cool()
	}
}
