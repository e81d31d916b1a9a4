package dist

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child stream should not equal a fresh parent-seeded stream.
	fresh := NewRNG(7)
	match := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == fresh.Uint64() {
			match++
		}
	}
	if match > 2 {
		t.Errorf("split stream tracks the parent seed (%d matches)", match)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d has %d draws, want ~%g", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 10000, 0.99)
	const draws = 200000
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= 10000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 must be by far the hottest; top-10 items should take a large
	// share of accesses under theta=0.99.
	top10 := 0
	for i := uint64(0); i < 10; i++ {
		top10 += counts[i]
	}
	if counts[0] < counts[1] {
		t.Errorf("item 0 (%d) not hotter than item 1 (%d)", counts[0], counts[1])
	}
	if frac := float64(top10) / draws; frac < 0.3 {
		t.Errorf("top-10 share = %g, want skewed (>0.3)", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %g) did not panic", tc.n, tc.theta)
				}
			}()
			NewZipf(NewRNG(1), tc.n, tc.theta)
		}()
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	r := NewRNG(5)
	s := NewScrambledZipf(r, 100000, 0.99)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		v := s.Next()
		if v >= 100000 {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	// Find the two hottest keys: they must not be adjacent (scrambling).
	var k1, k2 uint64
	var c1, c2 int
	for k, c := range counts {
		if c > c1 {
			k2, c2 = k1, c1
			k1, c1 = k, c
		} else if c > c2 {
			k2, c2 = k, c
		}
	}
	if c1 < 100 {
		t.Fatalf("hottest key only %d draws; distribution not skewed", c1)
	}
	d := int64(k1) - int64(k2)
	if d < 0 {
		d = -d
	}
	if d == 1 {
		t.Errorf("two hottest keys are adjacent (%d, %d); not scrambled", k1, k2)
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(NewRNG(1), 1<<20, 0.99)
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkUint64n draws from a non-power-of-two range, the
// multiply-shift path.
func BenchmarkUint64n(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(35328)
	}
}

// portableMul64 is the 128-bit product from 32-bit halves, the
// reference for the bits.Mul64 intrinsic Uint64n uses.
func portableMul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

func TestMul64MatchesPortable(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	check := func(a, b uint64) {
		hi, lo := bits.Mul64(a, b)
		if whi, wlo := portableMul64(a, b); hi != whi || lo != wlo {
			t.Errorf("Mul64(%#x, %#x) = %#x:%#x, portable %#x:%#x", a, b, hi, lo, whi, wlo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := NewRNG(9)
	for i := 0; i < 100000; i++ {
		check(r.Uint64(), r.Uint64()>>r.Intn(64))
	}
}
