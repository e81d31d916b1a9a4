// Package stats provides the small statistical toolkit used by the
// experiment harness: the arithmetic and geometric mean, Pearson
// correlation (Figure 3), and time-series binning for the
// migrations-over-time plots (Figures 12 and 17).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// ignored; an empty (or all-ignored) slice yields 0. Used to summarize
// normalized-runtime ratios across workloads, the standard practice for
// speedup aggregation.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics if the lengths differ, and returns 0 when either series has
// zero variance or fewer than two points. Figure 3 of the paper reports
// Pearson correlations of 0.89/0.81/0.87 between performance and DRAM
// access ratio.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Series is a sampled time series: parallel slices of timestamps
// (virtual nanoseconds) and values.
type Series struct {
	T []int64
	V []float64
}

// Append adds one point to the series.
func (s *Series) Append(t int64, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// Bin aggregates the series into nbins equal-width time bins over
// [start, end), summing values within each bin. Points outside the range
// are clamped into the nearest bin. Used for migrations-over-time plots.
func (s *Series) Bin(start, end int64, nbins int) []float64 {
	out := make([]float64, nbins)
	if nbins == 0 || end <= start || s.Len() == 0 {
		return out
	}
	width := float64(end-start) / float64(nbins)
	for i, t := range s.T {
		b := int(float64(t-start) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		out[b] += s.V[i]
	}
	return out
}

// BinMean is like Bin but averages values within each bin instead of
// summing; empty bins are 0. Used for DRAM-access-ratio-over-time plots.
func (s *Series) BinMean(start, end int64, nbins int) []float64 {
	sums := s.Bin(start, end, nbins)
	counts := make([]float64, nbins)
	if nbins == 0 || end <= start {
		return sums
	}
	width := float64(end-start) / float64(nbins)
	for _, t := range s.T {
		b := int(float64(t-start) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= counts[i]
		}
	}
	return sums
}
