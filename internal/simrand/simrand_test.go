package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(42).Stream("faults")
	b := NewSource(42).Stream("faults")
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSubstreamIndependence(t *testing.T) {
	src := NewSource(7)
	a := src.Stream("a")
	b := src.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("substreams a and b produced %d identical draws", same)
	}
}

func TestSubstreamStableUnderNewConsumers(t *testing.T) {
	// Drawing from a new substream must not change an existing one.
	s1 := NewSource(99)
	before := s1.Stream("vendor").Uint64()

	s2 := NewSource(99)
	_ = s2.Stream("brand-new-consumer").Uint64()
	after := s2.Stream("vendor").Uint64()

	if before != after {
		t.Fatalf("substream 'vendor' perturbed by new consumer: %d != %d", before, after)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(2)
	const mean = 250.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %v, want within 2%% of %v", got, mean)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(3)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(4)
	for _, mean := range []float64{0.5, 3, 20, 120} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	r := New(5)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
}

func TestWeighted(t *testing.T) {
	r := New(6)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Weighted(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Errorf("bucket 0 frequency = %v, want ~0.25", frac0)
	}
}

func TestWeightedAllZero(t *testing.T) {
	r := New(7)
	if got := r.Weighted([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Weighted(all-zero) = %d, want 0", got)
	}
	if got := r.Weighted([]float64{-1, -2}); got != 0 {
		t.Errorf("Weighted(all-negative) = %d, want 0", got)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			if r.LogNormal(1, 0.5) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(100)
	}
}
