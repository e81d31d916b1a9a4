package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !close(got, 2.5) {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !close(got, 4) {
		t.Errorf("GeoMean = %g, want 4", got)
	}
	// Non-positive values are ignored.
	if got := GeoMean([]float64{-1, 0, 4, 4}); !close(got, 4) {
		t.Errorf("GeoMean with junk = %g, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %g", got)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !close(got, 1) {
		t.Errorf("Pearson = %g, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !close(got, -1) {
		t.Errorf("Pearson = %g, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("zero-variance Pearson = %g, want 0", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("single-point Pearson = %g, want 0", got)
	}
}

func TestPearsonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}

func TestPearsonBounded(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) ||
				math.Abs(p[0]) > 1e150 || math.Abs(p[1]) > 1e150 {
				// Skip inputs whose squared sums overflow float64; the
				// correlation of physical metrics never approaches 1e150.
				return true
			}
			xs[i], ys[i] = p[0], p[1]
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesBin(t *testing.T) {
	var s Series
	s.Append(0, 1)
	s.Append(10, 2)
	s.Append(25, 3)
	s.Append(99, 4)
	bins := s.Bin(0, 100, 4) // width 25
	want := []float64{3, 3, 0, 4}
	for i := range want {
		if !close(bins[i], want[i]) {
			t.Errorf("Bin[%d] = %g, want %g (bins=%v)", i, bins[i], want[i], bins)
		}
	}
	// Out-of-range points clamp.
	var s2 Series
	s2.Append(-5, 1)
	s2.Append(1000, 2)
	b2 := s2.Bin(0, 100, 2)
	if b2[0] != 1 || b2[1] != 2 {
		t.Errorf("clamping failed: %v", b2)
	}
	// Degenerate parameters.
	if got := s.Bin(0, 0, 4); len(got) != 4 {
		t.Errorf("degenerate Bin length = %d", len(got))
	}
}

func TestSeriesBinMean(t *testing.T) {
	var s Series
	s.Append(0, 2)
	s.Append(10, 4)
	s.Append(60, 10)
	bins := s.BinMean(0, 100, 2)
	if !close(bins[0], 3) || !close(bins[1], 10) {
		t.Errorf("BinMean = %v, want [3 10]", bins)
	}
}

func TestSeriesLen(t *testing.T) {
	var s Series
	if s.Len() != 0 {
		t.Errorf("empty series Len = %d", s.Len())
	}
	s.Append(1, 1)
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}
