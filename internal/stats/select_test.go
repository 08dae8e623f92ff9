package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"dcnr/internal/simrand"
)

// percentileSorted is the reference the selection is checked against:
// linear interpolation between the closest ranks of a sorted sample, the
// definition Percentile computed by sorting a copy.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// refPercentiles sorts a copy of xs (NaNs first, as sort.Float64s orders
// them) and reads each percentile off it.
func refPercentiles(xs, ps []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// checkMatchesSort compares Percentile, Percentiles and SelectPercentiles
// on xs with the sort-based reference. Equality is ==, or both NaN. ==
// also holds between -0 and +0, which the two orders may place
// differently since neither is less than the other; that is the one
// difference allowed, and a -0 resolution can arrive through JSON
// ("resolution": -0 passes validation).
func checkMatchesSort(t *testing.T, name string, xs, ps []float64) {
	t.Helper()
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	want := refPercentiles(xs, ps)
	orig := append([]float64(nil), xs...)
	got, err := Percentiles(xs, ps...)
	if err != nil {
		t.Fatalf("%s: Percentiles: %v", name, err)
	}
	if !slices.EqualFunc(xs, orig, same) {
		t.Fatalf("%s: Percentiles reordered its input", name)
	}
	for i, p := range ps {
		if !same(got[i], want[i]) {
			t.Errorf("%s: Percentiles p%v = %v, sort gives %v", name, p, got[i], want[i])
		}
		one, err := Percentile(xs, p)
		if err != nil || !same(one, want[i]) {
			t.Errorf("%s: Percentile(p%v) = %v, %v; sort gives %v", name, p, one, err, want[i])
		}
	}
	if !slices.EqualFunc(xs, orig, same) {
		t.Fatalf("%s: Percentile reordered its input", name)
	}
	inPlace, err := SelectPercentiles(xs, ps...)
	if err != nil {
		t.Fatalf("%s: SelectPercentiles: %v", name, err)
	}
	for i, p := range ps {
		if !same(inPlace[i], want[i]) {
			t.Errorf("%s: SelectPercentiles p%v = %v, sort gives %v", name, p, inPlace[i], want[i])
		}
	}
	sort.Float64s(xs)
	sort.Float64s(orig)
	if !slices.EqualFunc(xs, orig, same) {
		t.Fatalf("%s: SelectPercentiles changed the sample, not just its order", name)
	}
}

// TestPercentilesMatchSort checks the selection against sorting on small
// and edge-case samples: every rank of n = 1, 2 and 17, out-of-order and
// repeated percentiles, heavy ties, NaNs and infinities.
func TestPercentilesMatchSort(t *testing.T) {
	ps := []float64{0, 100, 50, 99, 1, 75, 25, 90, 10, 50, 33.3, 66.7, 12.5}
	for _, n := range []int{1, 2, 3, 17, 100, 1000} {
		r := simrand.New(uint64(n))
		random := make([]float64, n)
		ties := make([]float64, n)
		for i := range random {
			random[i] = r.Exp(50)
			ties[i] = float64(r.Intn(3))
		}
		checkMatchesSort(t, "random", random, ps)
		checkMatchesSort(t, "ties", ties, ps)
		// Every rank and every midpoint between two ranks.
		var each []float64
		for k := 0; k <= 2*(n-1); k++ {
			each = append(each, 100*float64(k)/float64(2*max(n-1, 1)))
		}
		checkMatchesSort(t, "every rank", random, each)
		withNaN := append([]float64(nil), random...)
		withNaN[n/2] = math.NaN()
		checkMatchesSort(t, "NaN", withNaN, ps)
	}
	checkMatchesSort(t, "all NaN", []float64{math.NaN(), math.NaN(), math.NaN()}, ps)
	checkMatchesSort(t, "NaN and inf", []float64{math.Inf(1), 3, math.NaN(), math.Inf(-1), 0, math.NaN(), 2}, ps)
	checkMatchesSort(t, "signed zeros", []float64{0, math.Copysign(0, -1), 1, math.Copysign(0, -1), 0}, ps)
}

// medianOf3Killer returns n values on which quickselect for rank k with a
// median-of-3 pivot (first, middle and last of the range) and Hoare
// partitioning, as selectRank does it, peels only two values per round:
// each round's first and middle positions hold the range's two smallest
// values, so the pivot is the second smallest. Without a round budget
// rank n/2 takes about n/4 rounds and 3n²/16 steps.
func medianOf3Killer(n, k int) []float64 {
	item := make([]int, n) // item[pos]: the input position of the value at pos
	for i := range item {
		item[i] = i
	}
	xs := make([]float64, n)
	next := 1.0
	for a := 0; n-a > 12 && k >= a+2; a += 2 {
		m := a + (n-a-1)/2
		xs[item[a]], xs[item[m]] = next, next+1
		next += 2
		item[a+1], item[m] = item[m], item[a+1] // the partition's one swap
	}
	for i, x := range xs {
		if x == 0 {
			xs[i] = next
		}
	}
	return xs
}

// TestPercentilesPatternedInputs runs the selection over 2^17 values in
// the orders that make naive quickselect quadratic. Each must match the
// sort and finish well under a second: a quadratic path at this size
// takes several.
func TestPercentilesPatternedInputs(t *testing.T) {
	const n = 1 << 17
	patterns := map[string]func(i int) float64{
		"sorted":    func(i int) float64 { return float64(i) },
		"reversed":  func(i int) float64 { return float64(n - i) },
		"all equal": func(int) float64 { return 7 },
		"organ pipe": func(i int) float64 {
			return float64(min(i, n-1-i))
		},
		"sawtooth": func(i int) float64 { return float64(i % 64) },
	}
	inputs := map[string][]float64{"median-of-3 killer": medianOf3Killer(n, n/2)}
	for name, f := range patterns {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		inputs[name] = xs
	}
	ps := []float64{50, 75, 90, 99}
	for name, xs := range inputs {
		want := refPercentiles(xs, ps)
		t0 := time.Now()
		got, err := SelectPercentiles(xs, ps...)
		if elapsed := time.Since(t0); elapsed > time.Second {
			t.Errorf("%s: SelectPercentiles took %v", name, elapsed)
		}
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("%s: SelectPercentiles = %v, %v; sort gives %v", name, got, err, want)
		}
	}
}

// TestPercentilesAllocs pins the allocations: SelectPercentiles makes only
// its result, Percentiles also the copy it selects in, and Percentile only
// the copy.
func TestPercentilesAllocs(t *testing.T) {
	xs := make([]float64, 1000)
	r := simrand.New(3)
	for i := range xs {
		xs[i] = r.Exp(50)
	}
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"SelectPercentiles", 1, func() { _, _ = SelectPercentiles(xs, 50, 75, 90, 99) }},
		{"Percentiles", 2, func() { _, _ = Percentiles(xs, 50, 75, 90, 99) }},
		{"Percentile", 1, func() { _, _ = Percentile(xs, 75) }},
	} {
		if got := testing.AllocsPerRun(20, c.f); got != c.want {
			t.Errorf("%s: %v allocs per run, want %v", c.name, got, c.want)
		}
	}
}

// FuzzPercentilesMatchSort checks the selection against sorting over
// arbitrary float64 bit patterns (NaNs, infinities, signed zeros and
// subnormals included), with each pair of bytes of ps mapped onto
// [0, 100].
func FuzzPercentilesMatchSort(f *testing.F) {
	le := binary.LittleEndian
	f.Add(le.AppendUint64(le.AppendUint64(nil, math.Float64bits(2)), math.Float64bits(1)), []byte{0xff, 0xff, 0, 0, 0x80, 0})
	f.Add(le.AppendUint64(le.AppendUint64(nil, math.Float64bits(math.NaN())), 0x8000000000000000), []byte{0x40, 0})
	f.Fuzz(func(t *testing.T, data, pdata []byte) {
		xs := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(le.Uint64(data)))
		}
		var ps []float64
		for ; len(pdata) >= 2; pdata = pdata[2:] {
			ps = append(ps, float64(le.Uint16(pdata))/math.MaxUint16*100)
		}
		if len(xs) == 0 {
			if _, err := SelectPercentiles(xs, ps...); err != ErrInsufficientData {
				t.Fatalf("empty sample: err = %v", err)
			}
			return
		}
		checkMatchesSort(t, "fuzz", xs, ps)
	})
}
