package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) = %g", Mean(nil))
	}
	if StdDev([]float64{5}) != 0 {
		t.Errorf("StdDev of single element must be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !close(Mean(xs), 5, 1e-12) {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if want := math.Sqrt(32.0 / 7.0); !close(StdDev(xs), want, 1e-12) {
		t.Errorf("StdDev = %g, want %g", StdDev(xs), want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !close(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// interpolation between order statistics
	if got := Quantile([]float64{0, 10}, 0.35); !close(got, 3.5, 1e-12) {
		t.Errorf("interpolated quantile = %g, want 3.5", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Errorf("Quantile(nil) must be 0")
	}
	// input must not be mutated
	if xs[0] != 3 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		q1 = math.Mod(math.Abs(q1), 1)
		q2 = math.Mod(math.Abs(q2), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, hi := Quantile(clean, 0), Quantile(clean, 1)
		a, b := Quantile(clean, q1), Quantile(clean, q2)
		return a <= b && lo <= a && b <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
