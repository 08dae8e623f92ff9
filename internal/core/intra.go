// Package core is the reliability-analysis engine: the paper's primary
// contribution, re-implemented over simulated operational data.
//
// The intra-data-center half consumes a SEV store and the fleet model and
// produces every statistic of §5: root-cause distributions, per-device-type
// incident rates, severity mixes, incident distributions, design
// comparisons, mean time between incidents, and 75th-percentile incident
// resolution times. The inter-data-center half (inter.go) consumes the
// reconstructed vendor-ticket intervals and produces §6's MTBF/MTTR
// percentile curves, exponential models, and continent breakdowns.
//
// Nothing in this package reads the generator's calibration: every number
// is recomputed from the raw records, which is what lets the test suite
// check that the paper's shapes *emerge* from the simulated history.
package core

import (
	"sort"

	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

// IntraAnalysis answers the §5 questions over one SEV dataset.
type IntraAnalysis struct {
	Store *sev.Store
	Fleet *fleet.Model
}

// NewIntraAnalysis pairs a SEV dataset with the fleet model it was
// collected from.
func NewIntraAnalysis(store *sev.Store, fl *fleet.Model) *IntraAnalysis {
	return &IntraAnalysis{Store: store, Fleet: fl}
}

// RootCauseDistribution returns Table 2: the fraction of SEVs that carry
// each root-cause category. A SEV with several causes counts toward each,
// so the fractions may sum to slightly more than 1.
func (a *IntraAnalysis) RootCauseDistribution() map[sev.RootCause]float64 {
	counts := a.Store.Query().CountByRootCause()
	total := a.Store.Len()
	out := make(map[sev.RootCause]float64, len(counts))
	if total == 0 {
		return out
	}
	for c, n := range counts {
		out[c] = float64(n) / float64(total)
	}
	return out
}

// RootCauseByDevice returns Figure 2: for each root-cause category, the
// fraction of that category's incidents attributed to each device type.
func (a *IntraAnalysis) RootCauseByDevice() map[sev.RootCause]map[topology.DeviceType]float64 {
	out := make(map[sev.RootCause]map[topology.DeviceType]float64)
	for _, c := range sev.RootCauses {
		byType := a.Store.Query().RootCause(c).CountByDeviceType()
		total := 0
		for _, n := range byType {
			total += n
		}
		if total == 0 {
			continue
		}
		row := make(map[topology.DeviceType]float64, len(byType))
		for t, n := range byType {
			row[t] = float64(n) / float64(total)
		}
		out[c] = row
	}
	return out
}

// incidentCounts is the incident count per year and device type, read
// from the store in one query. Figures 3, 7–10 and 12 and the claims
// built on them are functions of it, so VerifyIntraClaims reads it once.
// A year or type with no incident has no entry.
type incidentCounts map[int]map[topology.DeviceType]int

// countIncidents reads the incident-count table of q's reports.
func countIncidents(q sev.Query) incidentCounts { return q.CountByYearDeviceType() }

// year returns the year's incident count.
func (c incidentCounts) year(y int) (n int) {
	for _, k := range c[y] {
		n += k
	}
	return n
}

// IncidentRate returns Figure 3 for one year: incidents per active device
// of each type (r = i/n, §5.2). Types with no population that year are
// omitted.
func (a *IntraAnalysis) IncidentRate(year int) map[topology.DeviceType]float64 {
	return a.incidentRate(countIncidents(a.Store.Query().Year(year)), year)
}

func (a *IntraAnalysis) incidentRate(c incidentCounts, year int) map[topology.DeviceType]float64 {
	out := make(map[topology.DeviceType]float64)
	for _, t := range topology.IntraDCTypes {
		pop := a.Fleet.Population(year, t)
		if pop == 0 {
			continue
		}
		out[t] = float64(c[year][t]) / float64(pop)
	}
	return out
}

// SeverityShare describes one severity level's slice of Figure 4: its share
// of all SEVs (the figure's N annotations) and the per-device-type
// composition of that level.
type SeverityShare struct {
	// Share is the fraction of the year's SEVs at this level.
	Share float64
	// ByDevice is the fraction of this level's SEVs per device type.
	ByDevice map[topology.DeviceType]float64
}

// SeverityBreakdown returns Figure 4 for one year.
func (a *IntraAnalysis) SeverityBreakdown(year int) map[sev.Severity]SeverityShare {
	out := make(map[sev.Severity]SeverityShare, len(sev.Severities))
	bySevType := a.Store.Query().Year(year).CountBySeverityDeviceType()
	total := 0
	for _, byType := range bySevType {
		for _, c := range byType {
			total += c
		}
	}
	if total == 0 {
		return out
	}
	for _, s := range sev.Severities {
		n := 0
		for _, c := range bySevType[s] {
			n += c
		}
		share := SeverityShare{
			Share:    float64(n) / float64(total),
			ByDevice: make(map[topology.DeviceType]float64),
		}
		for t, c := range bySevType[s] {
			share.ByDevice[t] = float64(c) / float64(n)
		}
		out[s] = share
	}
	return out
}

// SevRatePerDevice returns Figure 5: for each year, SEVs of each level per
// deployed network device.
func (a *IntraAnalysis) SevRatePerDevice() map[int]map[sev.Severity]float64 {
	out := make(map[int]map[sev.Severity]float64)
	byYearSev := a.Store.Query().CountByYearSeverity()
	for _, year := range a.Fleet.Years() {
		pop := a.Fleet.TotalPopulation(year)
		if pop == 0 {
			continue
		}
		row := make(map[sev.Severity]float64, len(sev.Severities))
		for s, n := range byYearSev[year] {
			row[s] = float64(n) / float64(pop)
		}
		out[year] = row
	}
	return out
}

// SwitchesVsEmployees returns Figure 6: normalized fleet size against the
// employee count, one point per year.
func (a *IntraAnalysis) SwitchesVsEmployees() []stats.Point {
	norm := a.Fleet.NormalizedPopulation()
	var pts []stats.Point
	for _, year := range a.Fleet.Years() {
		pts = append(pts, stats.Point{
			X: float64(a.Fleet.Employees(year)),
			Y: norm[year],
		})
	}
	return pts
}

// IncidentFractions returns Figure 7: for each year, each device type's
// fraction of that year's incidents.
func (a *IntraAnalysis) IncidentFractions() map[int]map[topology.DeviceType]float64 {
	out := make(map[int]map[topology.DeviceType]float64)
	for year, byType := range countIncidents(a.Store.Query()) {
		if row := incidentFractions(byType); row != nil {
			out[year] = row
		}
	}
	return out
}

// incidentFractions is one year's row of Figure 7, from the year's
// counts, or nil for a year with no incident.
func incidentFractions(byType map[topology.DeviceType]int) map[topology.DeviceType]float64 {
	total := 0
	for _, n := range byType {
		total += n
	}
	if total == 0 {
		return nil
	}
	row := make(map[topology.DeviceType]float64, len(byType))
	for t, n := range byType {
		row[t] = float64(n) / float64(total)
	}
	return row
}

// NormalizedIncidents returns Figure 8: per year and device type, incident
// counts normalized to a fixed baseline — the total number of SEVs in
// baselineYear (the paper uses 2017).
func (a *IntraAnalysis) NormalizedIncidents(baselineYear int) map[int]map[topology.DeviceType]float64 {
	c := countIncidents(a.Store.Query())
	baseline := c.year(baselineYear)
	out := make(map[int]map[topology.DeviceType]float64)
	if baseline == 0 {
		return out
	}
	for year, byType := range c {
		row := make(map[topology.DeviceType]float64, len(byType))
		for t, n := range byType {
			row[t] = float64(n) / float64(baseline)
		}
		out[year] = row
	}
	return out
}

// DesignIncidents returns Figure 9: per year, each network design's
// incident count normalized to the baseline year's total SEVs. Only the
// cluster and fabric designs are reported (RSW and Core are shared).
func (a *IntraAnalysis) DesignIncidents(baselineYear int) map[int]map[topology.Design]float64 {
	c := countIncidents(a.Store.Query())
	baseline := c.year(baselineYear)
	out := make(map[int]map[topology.Design]float64)
	if baseline == 0 {
		return out
	}
	for year, byType := range c {
		out[year] = designIncidents(byType, baseline)
	}
	return out
}

// designs are the network designs Figures 9 and 10 compare.
var designs = []topology.Design{topology.DesignCluster, topology.DesignFabric}

// designIncidents is one year's row of Figure 9, from the year's counts
// and the baseline year's total, which must not be 0.
func designIncidents(byType map[topology.DeviceType]int, baseline int) map[topology.Design]float64 {
	row := make(map[topology.Design]float64)
	for _, d := range designs {
		row[d] = float64(designCount(byType, d)) / float64(baseline)
	}
	return row
}

// designCount sums byType's counts over the types of design d.
func designCount(byType map[topology.DeviceType]int, d topology.Design) (n int) {
	for t, k := range byType {
		if t.Design() == d {
			n += k
		}
	}
	return n
}

// DesignRate returns Figure 10: per year, incidents per device for each
// network design.
func (a *IntraAnalysis) DesignRate() map[int]map[topology.Design]float64 {
	c := countIncidents(a.Store.Query())
	out := make(map[int]map[topology.Design]float64)
	for _, year := range a.Fleet.Years() {
		out[year] = a.designRate(c, year)
	}
	return out
}

// designRate is one year's row of Figure 10.
func (a *IntraAnalysis) designRate(c incidentCounts, year int) map[topology.Design]float64 {
	row := make(map[topology.Design]float64)
	for _, d := range designs {
		pop := a.Fleet.DesignPopulation(year, d)
		if pop == 0 {
			continue
		}
		row[d] = float64(designCount(c[year], d)) / float64(pop)
	}
	return row
}

// PopulationBreakdown returns Figure 11: each device type's fraction of
// the fleet per year.
func (a *IntraAnalysis) PopulationBreakdown() map[int]map[topology.DeviceType]float64 {
	out := make(map[int]map[topology.DeviceType]float64)
	for _, year := range a.Fleet.Years() {
		total := a.Fleet.TotalPopulation(year)
		if total == 0 {
			continue
		}
		row := make(map[topology.DeviceType]float64)
		for _, t := range topology.IntraDCTypes {
			if pop := a.Fleet.Population(year, t); pop > 0 {
				row[t] = float64(pop) / float64(total)
			}
		}
		out[year] = row
	}
	return out
}

// MTBI returns Figure 12 for one year: mean time between incidents in
// device-hours for each type (device-hours accumulated by the population
// divided by its incident count, §5.6). Types with no incidents that year
// are omitted — their MTBI is unbounded by observation.
func (a *IntraAnalysis) MTBI(year int) map[topology.DeviceType]float64 {
	return a.mtbi(countIncidents(a.Store.Query().Year(year)), year)
}

func (a *IntraAnalysis) mtbi(c incidentCounts, year int) map[topology.DeviceType]float64 {
	out := make(map[topology.DeviceType]float64)
	for _, t := range topology.IntraDCTypes {
		n := c[year][t]
		if n == 0 {
			continue
		}
		out[t] = a.Fleet.DeviceHours(year, t) / float64(n)
	}
	return out
}

// DesignMTBI returns §5.6's design comparison for one year: the average
// MTBI across a design's device types, in device-hours.
func (a *IntraAnalysis) DesignMTBI(year int, d topology.Design) float64 {
	return a.designMTBI(countIncidents(a.Store.Query().Year(year)), year, d)
}

func (a *IntraAnalysis) designMTBI(c incidentCounts, year int, d topology.Design) float64 {
	hours, incidents := 0.0, 0
	for _, t := range topology.IntraDCTypes {
		if t.Design() != d {
			continue
		}
		hours += a.Fleet.DeviceHours(year, t)
		incidents += c[year][t]
	}
	if incidents == 0 {
		return 0
	}
	return hours / float64(incidents)
}

// P75IRT returns Figure 13 for one year: the 75th-percentile incident
// resolution time in hours per device type. Types with no incidents are
// omitted.
func (a *IntraAnalysis) P75IRT(year int) map[topology.DeviceType]float64 {
	out := make(map[topology.DeviceType]float64)
	byType := a.Store.Query().Year(year).ResolutionsByDeviceType()
	for _, t := range topology.IntraDCTypes {
		res := byType[t]
		if len(res) == 0 {
			continue
		}
		ps, err := stats.SelectPercentiles(res, 75) // res is this query's own
		if err != nil {
			continue
		}
		out[t] = ps[0]
	}
	return out
}

// P75IRTOverall returns the pooled (all device types) p75 resolution time
// per year.
func (a *IntraAnalysis) P75IRTOverall() map[int]float64 {
	out := make(map[int]float64)
	for year, res := range a.Store.Query().ResolutionsByYear() {
		if ps, err := stats.SelectPercentiles(res, 75); err == nil { // res is this query's own
			out[year] = ps[0]
		}
	}
	return out
}

// IRTvsScale returns Figure 14: one point per year pairing the pooled p75
// resolution time (X, hours) with the normalized fleet size (Y).
func (a *IntraAnalysis) IRTvsScale() []stats.Point {
	p75 := a.P75IRTOverall()
	norm := a.Fleet.NormalizedPopulation()
	years := make([]int, 0, len(p75))
	for y := range p75 {
		years = append(years, y)
	}
	sort.Ints(years)
	var pts []stats.Point
	for _, y := range years {
		pts = append(pts, stats.Point{X: p75[y], Y: norm[y]})
	}
	return pts
}

// Years returns the years present in the dataset, ascending.
func (a *IntraAnalysis) Years() []int {
	byYear := a.Store.Query().CountByYear()
	years := make([]int, 0, len(byYear))
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	return years
}

// DurationStats answers §2's "How long do network failures affect software
// when they occur?" for one year: summary statistics plus the median and
// tail of incident durations (root-cause manifestation until fix), in
// hours.
type DurationStats struct {
	Summary  stats.Summary
	P50, P95 float64
}

// IncidentDurations returns the duration statistics of the year's
// incidents, or false when the year has none.
func (a *IntraAnalysis) IncidentDurations(year int) (DurationStats, bool) {
	var durations []float64
	for _, r := range a.Store.Query().Year(year).Reports() {
		durations = append(durations, r.Duration)
	}
	if len(durations) == 0 {
		return DurationStats{}, false
	}
	ds := DurationStats{Summary: stats.Summarize(durations)}
	ps, err := stats.Percentiles(durations, 50, 95)
	if err != nil {
		return DurationStats{}, false
	}
	ds.P50, ds.P95 = ps[0], ps[1]
	return ds, true
}
