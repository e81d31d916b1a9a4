package dist

import "math"

// Zipf generates integers in [0, n) following a Zipfian distribution with
// exponent theta (0 < theta < 1 for the classic YCSB parameterization;
// theta near 1 is highly skewed). Item 0 is the most popular.
//
// The implementation follows Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases" (SIGMOD '94), the same derivation
// used by YCSB's ZipfianGenerator: constant-time draws after O(1) setup.
type Zipf struct {
	rng   *RNG
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	z2    float64 // zeta(2, theta)
}

// NewZipf returns a Zipfian generator over [0, n) with skew theta.
// It panics if n == 0 or theta is not in (0, 1).
func NewZipf(rng *RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("dist: NewZipf with zero n")
	}
	if theta <= 0 || theta >= 1 {
		panic("dist: NewZipf theta must be in (0, 1)")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.z2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.z2/z.zetan)
	return z
}

// zeta computes the generalized harmonic number H_{n,theta}. O(n), done
// once at construction. For the footprint sizes used in this repository
// (≤ tens of millions of items) this is a few milliseconds.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next Zipfian-distributed value in [0, n), with 0 the
// hottest item.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// fnv64 scrambles a value with the 64-bit FNV-1a avalanche used by YCSB's
// ScrambledZipfian to spread hot items across the keyspace.
func fnv64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// ScrambledZipf draws Zipfian-popular items whose identities are scattered
// uniformly over the keyspace (YCSB's ScrambledZipfianGenerator). This is
// the distribution used by the YCSB workload drivers: popularity is
// skewed, but the popular keys are not contiguous.
type ScrambledZipf struct {
	z *Zipf
}

// NewScrambledZipf returns a scrambled Zipfian generator over [0, n).
func NewScrambledZipf(rng *RNG, n uint64, theta float64) *ScrambledZipf {
	return &ScrambledZipf{z: NewZipf(rng, n, theta)}
}

// Next draws the next key in [0, n).
func (s *ScrambledZipf) Next() uint64 {
	return fnv64(s.z.Next()) % s.z.n
}
