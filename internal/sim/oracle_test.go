package sim

import (
	"fmt"
	"math"
	"testing"

	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/topology"
)

// oracleSeeds is the fixed seed set of TestIncidentsMatchCalibration; a
// change to it is reviewed like a golden.
const oracleSeeds = 30

// oracleAlpha is the family-wise false-alarm rate of the oracle, split
// evenly (Bonferroni) over every cell and device-type check it makes.
const oracleAlpha = 1e-3

// TestIncidentsMatchCalibration is the statistical oracle for the intra-DC
// generator: expected incidents = N × p. Over full-range simulations at
// seeds 1..30, scale 1, the incident count of every (year, device type)
// cell must be a plausible draw from Poisson(30 × faults.IncidentTarget),
// and so must each type's count summed over the years. Plausible means an
// exact two-sided Poisson tail probability at or above oracleAlpha divided
// by the number of checks.
//
// The goldens say that an output moved; this test says whether the move
// keeps the calibration. The per-type sums catch a small bias only where
// the volume is large: Core expects about 5300 incidents over the seeds,
// so a 10% bias is about 7σ, while ESW and SSW expect a few hundred at
// most and catch only gross bias.
func TestIncidentsMatchCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("30 full-range simulations")
	}
	type cell struct {
		year int
		dt   topology.DeviceType
	}
	observed := make(map[cell]int)
	for seed := uint64(1); seed <= oracleSeeds; seed++ {
		res, err := IntraDC(IntraConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for year, byType := range res.Store.Query().CountByYearDeviceType() {
			for dt, n := range byType {
				observed[cell{year, dt}] += n
			}
		}
	}

	type check struct {
		name     string
		observed int
		mean     float64
	}
	var checks []check
	for _, dt := range topology.DeviceTypes {
		sum := check{name: dt.String()}
		for year := fleet.FirstYear; year <= fleet.LastYear; year++ {
			c := check{
				name:     fmt.Sprintf("%s %d", dt, year),
				observed: observed[cell{year, dt}],
				mean:     oracleSeeds * faults.IncidentTarget(year, dt),
			}
			checks = append(checks, c)
			sum.observed += c.observed
			sum.mean += c.mean
		}
		checks = append(checks, sum)
	}
	limit := oracleAlpha / float64(len(checks))
	worst, worstP := "", 1.0
	for _, c := range checks {
		p := poissonTwoSided(c.observed, c.mean)
		if p < limit {
			t.Errorf("%s: %d incidents over %d seeds, expected %.1f (two-sided p %.3g < %.3g)",
				c.name, c.observed, oracleSeeds, c.mean, p, limit)
		}
		if p < worstP {
			worst, worstP = c.name, p
		}
	}
	t.Logf("%d checks, limit p %.3g; smallest p %.3g (%s)", len(checks), limit, worstP, worst)
}

// poissonTwoSided returns the exact two-sided tail probability of x under
// Poisson(mean): twice the smaller of P(X <= x) and P(X >= x), capped at 1.
// A zero mean allows only x = 0.
func poissonTwoSided(x int, mean float64) float64 {
	if mean == 0 {
		if x == 0 {
			return 1
		}
		return 0
	}
	return math.Min(1, 2*math.Min(poissonTail(x, mean, -1), poissonTail(x, mean, +1)))
}

// poissonTail sums the Poisson(mean) probabilities from x outward: down to
// 0 (dir -1, P(X <= x)) or up without bound (dir +1, P(X >= x)). Summing
// the tail itself, rather than one minus its complement, keeps tiny tail
// probabilities exact; the sum stops once the terms, which shrink
// geometrically away from the mean, no longer change it.
func poissonTail(x int, mean float64, dir int) float64 {
	logMean := math.Log(mean)
	sum := 0.0
	for k := x; k >= 0; k += dir {
		lg, _ := math.Lgamma(float64(k) + 1)
		term := math.Exp(float64(k)*logMean - mean - lg)
		if sum+term == sum && (float64(k)-mean)*float64(dir) > 0 {
			break
		}
		sum += term
	}
	return sum
}

// TestPoissonTwoSided checks the oracle's tail arithmetic against values
// summed independently in float64, small and large means, both tails.
func TestPoissonTwoSided(t *testing.T) {
	for _, c := range []struct {
		x    int
		mean float64
		want float64
	}{
		{0, 1, 0.7357588823428847},
		{10, 1, 2.2285095667744159e-07},
		{5000, 5316, 1.249384912360566e-05},
		{5600, 5316, 0.0001149003000040332},
		{5316, 5316, 1},
		{0, 0, 1},
		{1, 0, 0},
	} {
		if got := poissonTwoSided(c.x, c.mean); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("poissonTwoSided(%d, %g) = %.16g, want %.16g", c.x, c.mean, got, c.want)
		}
	}
}
