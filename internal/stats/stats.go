// Package stats implements the statistical machinery the reliability study
// relies on: summary statistics, percentiles, least-squares exponential fits
// of percentile curves (the MTBF/MTTR models of §6), linear regression, and
// correlation.
//
// Percentiles are selected, not sorted for: each requested rank is found
// by introselect in expected linear time, and the results are bit for bit
// those of interpolating over a sorted copy. Only PercentileCurve, which
// needs every rank, sorts.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrInsufficientData is returned by estimators that need more samples than
// they were given.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Summary holds the moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
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

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns an error for an empty
// sample or p outside [0, 100]. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	ps, out := [1]float64{p}, [1]float64{}
	if err := checkPercentiles(xs, ps[:]); err != nil {
		return 0, err
	}
	selectPercentiles(append([]float64(nil), xs...), ps[:], out[:])
	return out[0], nil
}

// Percentiles returns the given percentiles of xs, selected from a single
// copy; xs is not modified. All requested percentiles are validated
// before the copy is made, so bad input fails fast on large samples.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if err := checkPercentiles(xs, ps); err != nil {
		return nil, err
	}
	out := make([]float64, len(ps))
	selectPercentiles(append([]float64(nil), xs...), ps, out)
	return out, nil
}

// SelectPercentiles is Percentiles without the copy: it reorders xs in
// place, so use it only on a slice the caller owns and no longer needs in
// its original order. The results are bit for bit those of Percentiles.
func SelectPercentiles(xs []float64, ps ...float64) ([]float64, error) {
	if err := checkPercentiles(xs, ps); err != nil {
		return nil, err
	}
	out := make([]float64, len(ps))
	selectPercentiles(xs, ps, out)
	return out, nil
}

// checkPercentiles rejects an empty sample and any p outside [0, 100],
// NaN included.
func checkPercentiles(xs, ps []float64) error {
	if len(xs) == 0 {
		return ErrInsufficientData
	}
	for _, p := range ps {
		if !(p >= 0 && p <= 100) {
			return errors.New("stats: percentile out of range")
		}
	}
	return nil
}

// selectPercentiles writes to out[i] the ps[i]-th percentile of xs, which
// is non-empty, interpolating linearly between the closest ranks of xs in
// sort.Float64s order (NaNs first). It finds each rank by selection
// rather than a sort, so it reorders xs. A rank once found stays fixed:
// everything before it is no greater and everything after it no smaller,
// so each later rank is selected only between the fixed ranks around it,
// and the rank above a fixed one is the minimum of the part above it.
func selectPercentiles(xs, ps, out []float64) {
	n := len(xs)
	nans := 0 // NaNs sort first; move them there, so no comparison meets one
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	rank := func(p float64) (lo, hi int, frac float64) {
		r := p / 100 * float64(n-1)
		lo, hi = int(math.Floor(r)), int(math.Ceil(r))
		return lo, hi, r - float64(lo)
	}
	// bounds returns the part xs[a:b] that rank k, not yet fixed, lies in
	// between the ranks ps[:i] fixed, or false if k is fixed already.
	bounds := func(k, i int) (a, b int, ok bool) {
		a, b = nans, n
		if k < nans {
			return a, b, false
		}
		for _, p := range ps[:i] {
			lo, hi, _ := rank(p)
			for _, f := range [2]int{lo, hi} {
				switch {
				case f == k:
					return a, b, false
				case f < k && f >= a:
					a = f + 1
				case f > k && f < b:
					b = f
				}
			}
		}
		return a, b, true
	}
	for i, p := range ps {
		lo, hi, frac := rank(p)
		if a, b, ok := bounds(lo, i); ok {
			selectRank(xs[a:b], lo-a)
		}
		if lo == hi {
			out[i] = xs[lo]
			continue
		}
		// With lo fixed, rank hi = lo+1 is the least value after it.
		if _, b, ok := bounds(hi, i); ok {
			m := hi
			for j := hi + 1; j < b; j++ {
				if xs[j] < xs[m] {
					m = j
				}
			}
			xs[hi], xs[m] = xs[m], xs[hi]
		}
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
}

// selectRank reorders xs, which holds no NaN, so that xs[k] is the value
// a sort would put there, with nothing greater before it and nothing
// smaller after it. It is introselect: quickselect with a median-of-3
// pivot and Hoare partitioning, which falls back to sorting what is left
// after 2·log2(n) rounds, so no input makes it quadratic.
func selectRank(xs []float64, k int) {
	a, b := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); b-a > 12; budget-- {
		if budget == 0 {
			sort.Float64s(xs[a:b])
			return
		}
		m := a + (b-a-1)/2
		if xs[m] < xs[a] {
			xs[a], xs[m] = xs[m], xs[a]
		}
		if xs[b-1] < xs[m] {
			xs[m], xs[b-1] = xs[b-1], xs[m]
			if xs[m] < xs[a] {
				xs[a], xs[m] = xs[m], xs[a]
			}
		}
		pivot := xs[m]
		i, j := a-1, b
		for {
			for i++; xs[i] < pivot; i++ {
			}
			for j--; pivot < xs[j]; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		// xs[a:j+1] <= pivot <= xs[j+1:b], both parts non-empty.
		if k <= j {
			b = j + 1
		} else {
			a = j + 1
		}
	}
	for i := a + 1; i < b; i++ {
		for j := i; j > a && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Point is an (X, Y) observation.
type Point struct {
	X, Y float64
}

// LinearFit is a least-squares line y = Intercept + Slope*x with its
// coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear fits a least-squares line to pts. It returns
// ErrInsufficientData for fewer than two points or zero X variance.
func FitLinear(pts []Point) (LinearFit, error) {
	n := float64(len(pts))
	if n < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, ErrInsufficientData
	}
	fit := LinearFit{Slope: (n*sxy - sx*sy) / den}
	fit.Intercept = (sy - fit.Slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for _, p := range pts {
		pred := fit.Intercept + fit.Slope*p.X
		ssRes += (p.Y - pred) * (p.Y - pred)
		ssTot += (p.Y - meanY) * (p.Y - meanY)
	}
	if ssTot == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = 1 - ssRes/ssTot
	}
	return fit, nil
}

// ExpFit is an exponential model y = A * exp(B*x) fitted by least squares on
// log(y) — the method §6.1 of the paper states it used. R2 is computed in
// the original (non-log) space so it is comparable to the paper's reported
// R² values.
type ExpFit struct {
	A, B float64
	R2   float64
}

// Eval returns the model's prediction at x.
func (f ExpFit) Eval(x float64) float64 { return f.A * math.Exp(f.B*x) }

// FitExponential fits y = A*exp(B*x) to pts. All Y values must be positive;
// non-positive Y values are rejected because the log-linearization is
// undefined for them.
func FitExponential(pts []Point) (ExpFit, error) {
	logPts := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.Y <= 0 {
			return ExpFit{}, errors.New("stats: exponential fit requires positive Y")
		}
		logPts = append(logPts, Point{X: p.X, Y: math.Log(p.Y)})
	}
	lin, err := FitLinear(logPts)
	if err != nil {
		return ExpFit{}, err
	}
	fit := ExpFit{A: math.Exp(lin.Intercept), B: lin.Slope}

	meanY := 0.0
	for _, p := range pts {
		meanY += p.Y
	}
	meanY /= float64(len(pts))
	var ssTot, ssRes float64
	for _, p := range pts {
		pred := fit.Eval(p.X)
		ssRes += (p.Y - pred) * (p.Y - pred)
		ssTot += (p.Y - meanY) * (p.Y - meanY)
	}
	if ssTot == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = 1 - ssRes/ssTot
	}
	return fit, nil
}

// PercentileCurve maps each sample to the fraction of samples at or below it:
// the solid lines of Figures 15–18. The returned points are sorted by value,
// with X the percentile fraction in (0, 1] and Y the sample value.
func PercentileCurve(xs []float64) []Point {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pts := make([]Point, len(sorted))
	for i, v := range sorted {
		pts[i] = Point{X: float64(i+1) / float64(len(sorted)), Y: v}
	}
	return pts
}

// Correlation returns the Pearson correlation coefficient of pts, or an
// error when either variance is zero or there are fewer than two points.
func Correlation(pts []Point) (float64, error) {
	n := float64(len(pts))
	if n < 2 {
		return 0, ErrInsufficientData
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for _, p := range pts {
		dx, dy := p.X-mx, p.Y-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrInsufficientData
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Histogram counts xs into nbins equal-width bins over [min, max]. Values
// outside the range are clamped into the terminal bins.
func Histogram(xs []float64, min, max float64, nbins int) []int {
	if nbins <= 0 || max <= min {
		return nil
	}
	counts := make([]int, nbins)
	width := (max - min) / float64(nbins)
	for _, x := range xs {
		i := int((x - min) / width)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts
}
