package sweep

import (
	"sort"

	"dcnr/internal/core"
	"dcnr/internal/sim"
	"dcnr/internal/stats"
)

// RunStats is the small record a run is reduced to before its SEV store is
// dropped: the paper's key statistics for one (scenario, seed, scale) cell,
// evaluated at the run's final simulated year. It is the JSONL line format
// of the Results stream.
type RunStats struct {
	Run      int    `json:"run"`
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Scale    int    `json:"scale"`
	FromYear int    `json:"from_year"`
	ToYear   int    `json:"to_year"`

	// Faults and Incidents count generated device faults and escalated
	// SEVs over the whole run.
	Faults    int `json:"faults"`
	Incidents int `json:"incidents"`

	// IncidentRate is incidents per device in the final year, by device
	// type (Fig. 4 / §5.1).
	IncidentRate map[string]float64 `json:"incident_rate"`
	// RootCauseMix is the share of each root cause over the run (Table 2).
	RootCauseMix map[string]float64 `json:"root_cause_mix"`
	// MTBIHours is mean time between incidents in the final year, by
	// device type (Table 1's MTBI column).
	MTBIHours map[string]float64 `json:"mtbi_hours"`
	// RepairRatio is the automated-repair success ratio by supported
	// device type (Table 1's ratio column). Empty when remediation was
	// disabled.
	RepairRatio map[string]float64 `json:"repair_ratio,omitempty"`
	// P75ResolutionHours is the 75th-percentile incident resolution time
	// in the final year (Fig. 12).
	P75ResolutionHours float64 `json:"p75_resolution_hours"`

	// Backbone statistics (§6), present only when Config.Backbone is set:
	// fleet-wide mean edge availability and median per-edge MTBF/MTTR.
	EdgeAvailability float64 `json:"edge_availability,omitempty"`
	EdgeMTBFHours    float64 `json:"edge_mtbf_hours,omitempty"`
	EdgeMTTRHours    float64 `json:"edge_mttr_hours,omitempty"`
}

// intraStats reduces a completed intra-DC run to its RunStats record.
func intraStats(spec runSpec, res *sim.IntraResult) RunStats {
	year := spec.scenario.ToYear
	rs := RunStats{
		Run:       spec.run,
		Scenario:  spec.scenario.Name,
		Seed:      spec.seed,
		Scale:     spec.scale,
		FromYear:  spec.scenario.FromYear,
		ToYear:    year,
		Faults:    res.Faults,
		Incidents: res.Incidents,

		IncidentRate:       make(map[string]float64),
		RootCauseMix:       make(map[string]float64),
		MTBIHours:          make(map[string]float64),
		P75ResolutionHours: res.Analysis.P75IRTOverall()[year],
	}
	for dt, rate := range res.Analysis.IncidentRate(year) {
		rs.IncidentRate[dt.String()] = rate
	}
	for rc, share := range res.Analysis.RootCauseDistribution() {
		rs.RootCauseMix[rc.String()] = share
	}
	for dt, mtbi := range res.Analysis.MTBI(year) {
		rs.MTBIHours[dt.String()] = mtbi
	}
	if len(res.RemediationStats) > 0 {
		rs.RepairRatio = make(map[string]float64, len(res.RemediationStats))
		for dt, ts := range res.RemediationStats {
			if ts.Issues > 0 {
				rs.RepairRatio[dt.String()] = ts.RepairRatio()
			}
		}
	}
	return rs
}

// edgeStats is a backbone leg reduced to what each of its runs reports:
// mean edge availability across the backbone and median per-edge
// MTBF/MTTR.
type edgeStats struct{ availability, mtbfHours, mttrHours float64 }

func backboneStats(a *core.InterAnalysis) edgeStats {
	return edgeStats{meanOf(a.EdgeAvailability()), medianOf(a.EdgeMTBF()), medianOf(a.EdgeMTTR())}
}

// addBackboneStats folds a run's backbone leg into its record.
func addBackboneStats(rs *RunStats, e edgeStats) {
	rs.EdgeAvailability, rs.EdgeMTBFHours, rs.EdgeMTTRHours = e.availability, e.mtbfHours, e.mttrHours
}

// meanOf averages m's values, summed in sorted order so the mean is
// reproducible to the last bit whatever the map's iteration order.
func meanOf(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(m))
}

func medianOf(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	med, err := stats.Percentile(xs, 50)
	if err != nil {
		return 0
	}
	return med
}

// Band is the cross-run distribution of one statistic: mean with an
// empirical p5–p95 band over N contributing runs.
type Band struct {
	Mean float64 `json:"mean"`
	P5   float64 `json:"p5"`
	P95  float64 `json:"p95"`
	N    int     `json:"n"`
}

// bandOf summarizes samples into a Band; the zero Band for no samples.
func bandOf(xs []float64) Band {
	if len(xs) == 0 {
		return Band{}
	}
	ps, err := stats.Percentiles(xs, 5, 95)
	if err != nil {
		return Band{}
	}
	return Band{Mean: stats.Mean(xs), P5: ps[0], P95: ps[1], N: len(xs)}
}

// Group is the aggregation of every run sharing a (scenario, scale) cell:
// each per-run statistic summarized across seeds as a Band.
type Group struct {
	Scenario string `json:"scenario"`
	Scale    int    `json:"scale"`
	Seeds    int    `json:"seeds"`

	Faults    Band `json:"faults"`
	Incidents Band `json:"incidents"`

	IncidentRate       map[string]Band `json:"incident_rate"`
	RootCauseMix       map[string]Band `json:"root_cause_mix"`
	MTBIHours          map[string]Band `json:"mtbi_hours"`
	RepairRatio        map[string]Band `json:"repair_ratio,omitempty"`
	P75ResolutionHours Band            `json:"p75_resolution_hours"`

	EdgeAvailability *Band `json:"edge_availability,omitempty"`
	EdgeMTBFHours    *Band `json:"edge_mtbf_hours,omitempty"`
	EdgeMTTRHours    *Band `json:"edge_mttr_hours,omitempty"`
}

// Report is the aggregated campaign output: the grid that ran (minus
// anything execution-dependent — worker count and wall time are excluded
// so reports are comparable across machines) and one Group per
// (scenario, scale) cell, in grid order.
type Report struct {
	Seeds     []uint64   `json:"seeds"`
	Scales    []int      `json:"scales"`
	Scenarios []Scenario `json:"scenarios"`
	Backbone  bool       `json:"backbone,omitempty"`
	Groups    []Group    `json:"groups"`
}

// aggregate folds per-run records into the campaign report. Runs are
// grouped in grid order and every map is keyed by the sorted union of the
// runs' keys, so aggregation order never depends on scheduling.
func aggregate(cfg Config, runs []RunStats) Report {
	rep := Report{
		Seeds:     cfg.Seeds,
		Scales:    cfg.Scales,
		Scenarios: cfg.Scenarios,
		Backbone:  cfg.Backbone,
	}
	for _, sc := range cfg.Scenarios {
		for _, scale := range cfg.Scales {
			var members []RunStats
			for _, r := range runs {
				if r.Scenario == sc.Name && r.Scale == scale {
					members = append(members, r)
				}
			}
			g := Group{
				Scenario:  sc.Name,
				Scale:     scale,
				Seeds:     len(members),
				Faults:    bandOf(intSamples(members, func(r RunStats) int { return r.Faults })),
				Incidents: bandOf(intSamples(members, func(r RunStats) int { return r.Incidents })),
				IncidentRate: mapBands(members, func(r RunStats) map[string]float64 {
					return r.IncidentRate
				}),
				RootCauseMix: mapBands(members, func(r RunStats) map[string]float64 {
					return r.RootCauseMix
				}),
				MTBIHours: mapBands(members, func(r RunStats) map[string]float64 {
					return r.MTBIHours
				}),
				RepairRatio: mapBands(members, func(r RunStats) map[string]float64 {
					return r.RepairRatio
				}),
				P75ResolutionHours: bandOf(samples(members, func(r RunStats) float64 {
					return r.P75ResolutionHours
				})),
			}
			if cfg.Backbone {
				avail := bandOf(samples(members, func(r RunStats) float64 { return r.EdgeAvailability }))
				mtbf := bandOf(samples(members, func(r RunStats) float64 { return r.EdgeMTBFHours }))
				mttr := bandOf(samples(members, func(r RunStats) float64 { return r.EdgeMTTRHours }))
				g.EdgeAvailability, g.EdgeMTBFHours, g.EdgeMTTRHours = &avail, &mtbf, &mttr
			}
			rep.Groups = append(rep.Groups, g)
		}
	}
	return rep
}

func samples(runs []RunStats, get func(RunStats) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = get(r)
	}
	return xs
}

func intSamples(runs []RunStats, get func(RunStats) int) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(get(r))
	}
	return xs
}

// mapBands aggregates a per-run map statistic key-by-key: every key seen
// in any run, sorted, each summarized over the runs where it is present.
func mapBands(runs []RunStats, get func(RunStats) map[string]float64) map[string]Band {
	keys := make(map[string]bool)
	for _, r := range runs {
		for k := range get(r) {
			keys[k] = true
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	out := make(map[string]Band, len(sorted))
	for _, k := range sorted {
		var xs []float64
		for _, r := range runs {
			if v, ok := get(r)[k]; ok {
				xs = append(xs, v)
			}
		}
		out[k] = bandOf(xs)
	}
	return out
}
