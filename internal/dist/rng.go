// Package dist provides deterministic random number generation and the
// access-skew distributions used throughout the ArtMem simulation:
// uniform, Zipfian and scrambled Zipfian (YCSB-style).
//
// All generators are seeded explicitly and never touch global state, so
// every experiment in the repository is reproducible bit-for-bit.
package dist

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). It is not safe for concurrent use; give each goroutine
// its own instance (see Split).
type RNG struct {
	s [4]uint64
}

// splitmix64 is used to seed the xoshiro state from a single word, as
// recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two generators built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, so splitting at the same
// point in two identical runs yields identical children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("dist: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Multiply-shift with rejection to remove modulo bias.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n), like rand.Perm.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
