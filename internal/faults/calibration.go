package faults

import (
	"dcnr/internal/fleet"
	"dcnr/internal/obs/health"
	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

// This file holds the generator's calibration: the per-year incident
// volumes and mixes that make the *simulated* operational history
// statistically resemble the production history the paper measured. The
// analysis pipeline (internal/core) never reads these tables — it re-derives
// every statistic from the generated SEV reports, which is what makes the
// reproduction an end-to-end test of the paper's methodology rather than an
// echo of its numbers.

// incidentTotals is the expected number of network SEVs per year. The
// 2011→2017 growth is 9.4×, the figure §5.4 reports, and the values put the
// per-device SEV rate inflection at 2014–2015 (Figure 5).
var incidentTotals = map[int]float64{
	2011: 20,
	2012: 35,
	2013: 60,
	2014: 85,
	2015: 105,
	2016: 135,
	2017: 188,
}

// incidentShares distributes each year's SEVs across device types
// (Figures 7 and 8). The 2017 row realizes §5.4's headline: Core ≈ 34% and
// RSW ≈ 28% of service-level incidents; the 2013–2014 CSA spike drives the
// >1.0 CSA incident rates of §5.2; the fabric types ramp from 2015. Each
// row sums to 1.
var incidentShares = map[int]map[topology.DeviceType]float64{
	2011: {topology.Core: 0.30, topology.CSA: 0.12, topology.CSW: 0.38, topology.RSW: 0.20},
	2012: {topology.Core: 0.28, topology.CSA: 0.16, topology.CSW: 0.36, topology.RSW: 0.20},
	2013: {topology.Core: 0.22, topology.CSA: 0.30, topology.CSW: 0.28, topology.RSW: 0.20},
	2014: {topology.Core: 0.19, topology.CSA: 0.21, topology.CSW: 0.38, topology.RSW: 0.22},
	2015: {topology.Core: 0.24, topology.CSA: 0.052, topology.CSW: 0.386, topology.ESW: 0.01, topology.SSW: 0.01, topology.FSW: 0.042, topology.RSW: 0.26},
	2016: {topology.Core: 0.29, topology.CSA: 0.02, topology.CSW: 0.306, topology.ESW: 0.02, topology.SSW: 0.014, topology.FSW: 0.07, topology.RSW: 0.28},
	2017: {topology.Core: 0.36, topology.CSA: 0.02, topology.CSW: 0.207, topology.ESW: 0.026, topology.SSW: 0.017, topology.FSW: 0.07, topology.RSW: 0.30},
}

// rootCauseWeights is Table 2: the root-cause mix of network SEVs.
// Undetermined absorbs the residual so the weights sum to 100.
var rootCauseWeights = map[sev.RootCause]float64{
	sev.Maintenance:   17,
	sev.Hardware:      13,
	sev.Configuration: 13,
	sev.Bug:           12,
	sev.Accident:      10,
	sev.Capacity:      5,
	sev.Undetermined:  30,
}

// multiCauseProb is the probability a SEV carries a second root cause
// (§5.1 counts such SEVs toward multiple categories).
const multiCauseProb = 0.05

// scopeWeights calibrates, per device type, how often an escalated fault
// consumed one device, half its redundancy group under load, or the whole
// group. Pushed through the service-impact assessor these produce severity
// mixes near Figure 4's: Core ≈ 81/15/4, RSW ≈ 85/10/5, cluster types with
// relatively more SEV1s, fabric types with fewer. Order: device, group,
// unit. Indexed by device type; BBR, outside the intra-DC fleet, has none.
var scopeWeights = [int(topology.BBR) + 1][]float64{
	topology.Core: {81, 15, 4},
	topology.CSA:  {78, 14, 8},
	topology.CSW:  {80, 13, 7},
	topology.ESW:  {84, 13, 3},
	topology.SSW:  {84, 13, 3},
	topology.FSW:  {84, 13, 3},
	topology.RSW:  {85, 10, 5},
}

// resolutionP75 is the target 75th-percentile incident resolution time in
// hours per year (Figure 13): resolution times grow roughly 50× over the
// study as fleets grow and release processes become more thorough (§5.6).
var resolutionP75 = map[int]float64{
	2011: 3,
	2012: 6,
	2013: 12,
	2014: 24,
	2015: 48,
	2016: 90,
	2017: 160,
}

// resolutionSigma is the log-normal shape of resolution times; the p75
// targets pin the location parameter per year.
const resolutionSigma = 1.2

// escalationProb returns the probability that a fault on a device of type t
// cannot be repaired (by automation from 2013, by the manual repair desk
// before): §4.1.2's 1-in-397 (RSW), 1-in-214 (FSW), 1-in-4 (Core). Types
// without repair support escalate always.
func escalationProb(t topology.DeviceType) float64 {
	switch t {
	case topology.RSW:
		return 1.0 / 397
	case topology.FSW:
		return 1.0 / 214
	case topology.Core:
		return 1.0 / 4
	default:
		return 1
	}
}

// IncidentTarget returns the calibrated expected number of incidents for a
// device type in a year.
func IncidentTarget(year int, t topology.DeviceType) float64 {
	return incidentTotals[year] * incidentShares[year][t]
}

// TotalIncidentTarget returns the calibrated expected number of incidents
// across all device types in a year.
func TotalIncidentTarget(year int) float64 { return incidentTotals[year] }

// HealthTargets derives the streaming SLO objectives for a fleet from the
// same calibration tables that shape the generator: the health engine's
// error budgets are the expected incident volumes (scaled like the fleet),
// its MTTR objectives the Figure 13 resolution-p75 targets, and its MTBF
// denominators the per-year populations. This is the one place the
// calibration crosses into the observability plane; package health itself
// stays ignorant of the generator.
func HealthTargets(fl *fleet.Model) health.Targets {
	t := health.Targets{
		EpochYear: fleet.FirstYear,
		Years:     make([]health.Year, fleet.NumYears),
	}
	for i := range t.Years {
		year := fleet.FirstYear + i
		y := &t.Years[i]
		for dt, n := range fl.Populations(year) {
			y.Population[dt] = n
			y.Expected[dt] = IncidentTarget(year, dt) * float64(fl.Scale())
		}
		y.MTTRp75 = resolutionP75[year]
	}
	return t
}
