package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p       float64
		n       int
		refused bool
	}{
		{50, 19, true}, {50, 20, false},
		{90, 99, true}, {90, 100, false},
		{99, 999, true}, {99, 1000, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, err := percentile(xs, c.p)
		if (err != nil) != c.refused {
			t.Errorf("p%g of %d samples: err %v, want refused=%v", c.p, c.n, err, c.refused)
		}
	}
}

// The spreads printed by -repeat must match those computed from the JSON
// output with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
