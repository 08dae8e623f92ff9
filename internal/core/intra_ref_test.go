package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

// naiveIntra is the reference IntraAnalysis is checked against: every
// method is written from the paper's definitions as plain loops over the
// reports and the fleet model, with no sev.Query and no grouping helper.
// A SEV carrying several root causes counts once per cause (§5.1), MTBI
// is device-hours over incidents, and percentiles come from the same
// stats.Percentile definition over a slice built here in ID order.
type naiveIntra struct {
	reports []sev.Report
	fl      *fleet.Model
}

var refDesigns = []topology.Design{topology.DesignCluster, topology.DesignFabric}

func (n *naiveIntra) typeOf(r *sev.Report) topology.DeviceType {
	t, err := topology.ParseDeviceName(r.Device)
	if err != nil {
		panic(err)
	}
	return t
}

// yearTypeCounts counts the reports of each device type in year.
func (n *naiveIntra) yearTypeCounts(year int) map[topology.DeviceType]int {
	out := map[topology.DeviceType]int{}
	for i := range n.reports {
		if n.reports[i].Year == year {
			out[n.typeOf(&n.reports[i])]++
		}
	}
	return out
}

// Years lists the years with at least one report, ascending.
func (n *naiveIntra) Years() []int {
	seen := map[int]bool{}
	var years []int
	for _, r := range n.reports {
		if !seen[r.Year] {
			seen[r.Year] = true
			years = append(years, r.Year)
		}
	}
	sort.Ints(years)
	return years
}

func (n *naiveIntra) RootCauseDistribution() map[sev.RootCause]float64 {
	counts := map[sev.RootCause]int{}
	for _, r := range n.reports {
		if len(r.RootCauses) == 0 {
			counts[sev.Undetermined]++
		}
		for _, c := range r.RootCauses {
			counts[c]++
		}
	}
	out := map[sev.RootCause]float64{}
	if len(n.reports) == 0 {
		return out
	}
	for c, k := range counts {
		out[c] = float64(k) / float64(len(n.reports))
	}
	return out
}

func (n *naiveIntra) RootCauseByDevice() map[sev.RootCause]map[topology.DeviceType]float64 {
	out := map[sev.RootCause]map[topology.DeviceType]float64{}
	for _, c := range sev.RootCauses {
		byType := map[topology.DeviceType]int{}
		total := 0
		for i := range n.reports {
			r := &n.reports[i]
			carries := len(r.RootCauses) == 0 && c == sev.Undetermined
			for _, rc := range r.RootCauses {
				carries = carries || rc == c
			}
			if carries {
				byType[n.typeOf(r)]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		row := map[topology.DeviceType]float64{}
		for t, k := range byType {
			row[t] = float64(k) / float64(total)
		}
		out[c] = row
	}
	return out
}

func (n *naiveIntra) IncidentRate(year int) map[topology.DeviceType]float64 {
	counts := n.yearTypeCounts(year)
	out := map[topology.DeviceType]float64{}
	for _, t := range topology.IntraDCTypes {
		if pop := n.fl.Population(year, t); pop > 0 {
			out[t] = float64(counts[t]) / float64(pop)
		}
	}
	return out
}

func (n *naiveIntra) SeverityBreakdown(year int) map[sev.Severity]SeverityShare {
	out := map[sev.Severity]SeverityShare{}
	levels := map[sev.Severity]int{}
	byType := map[sev.Severity]map[topology.DeviceType]int{}
	total := 0
	for i := range n.reports {
		r := &n.reports[i]
		if r.Year != year {
			continue
		}
		if byType[r.Severity] == nil {
			byType[r.Severity] = map[topology.DeviceType]int{}
		}
		byType[r.Severity][n.typeOf(r)]++
		levels[r.Severity]++
		total++
	}
	if total == 0 {
		return out
	}
	for _, s := range sev.Severities {
		share := SeverityShare{
			Share:    float64(levels[s]) / float64(total),
			ByDevice: map[topology.DeviceType]float64{},
		}
		for t, k := range byType[s] {
			share.ByDevice[t] = float64(k) / float64(levels[s])
		}
		out[s] = share
	}
	return out
}

func (n *naiveIntra) SevRatePerDevice() map[int]map[sev.Severity]float64 {
	out := map[int]map[sev.Severity]float64{}
	for _, year := range n.fl.Years() {
		pop := n.fl.TotalPopulation(year)
		if pop == 0 {
			continue
		}
		levels := map[sev.Severity]int{}
		for _, r := range n.reports {
			if r.Year == year {
				levels[r.Severity]++
			}
		}
		row := map[sev.Severity]float64{}
		for s, k := range levels {
			row[s] = float64(k) / float64(pop)
		}
		out[year] = row
	}
	return out
}

func (n *naiveIntra) SwitchesVsEmployees() []stats.Point {
	var pts []stats.Point
	last := float64(n.fl.TotalPopulation(fleet.LastYear))
	for _, year := range n.fl.Years() {
		pts = append(pts, stats.Point{
			X: float64(n.fl.Employees(year)),
			Y: float64(n.fl.TotalPopulation(year)) / last,
		})
	}
	return pts
}

func (n *naiveIntra) IncidentFractions() map[int]map[topology.DeviceType]float64 {
	out := map[int]map[topology.DeviceType]float64{}
	for _, year := range n.Years() {
		counts := n.yearTypeCounts(year)
		total := 0
		for _, k := range counts {
			total += k
		}
		row := map[topology.DeviceType]float64{}
		for t, k := range counts {
			row[t] = float64(k) / float64(total)
		}
		out[year] = row
	}
	return out
}

func (n *naiveIntra) yearCount(year int) int {
	k := 0
	for _, r := range n.reports {
		if r.Year == year {
			k++
		}
	}
	return k
}

func (n *naiveIntra) NormalizedIncidents(baselineYear int) map[int]map[topology.DeviceType]float64 {
	out := map[int]map[topology.DeviceType]float64{}
	baseline := n.yearCount(baselineYear)
	if baseline == 0 {
		return out
	}
	for _, year := range n.Years() {
		row := map[topology.DeviceType]float64{}
		for t, k := range n.yearTypeCounts(year) {
			row[t] = float64(k) / float64(baseline)
		}
		out[year] = row
	}
	return out
}

// yearDesignCount counts the reports on devices of design d in year.
func (n *naiveIntra) yearDesignCount(year int, d topology.Design) int {
	k := 0
	for i := range n.reports {
		if r := &n.reports[i]; r.Year == year && n.typeOf(r).Design() == d {
			k++
		}
	}
	return k
}

func (n *naiveIntra) DesignIncidents(baselineYear int) map[int]map[topology.Design]float64 {
	out := map[int]map[topology.Design]float64{}
	baseline := n.yearCount(baselineYear)
	if baseline == 0 {
		return out
	}
	for _, year := range n.Years() {
		row := map[topology.Design]float64{}
		for _, d := range refDesigns {
			row[d] = float64(n.yearDesignCount(year, d)) / float64(baseline)
		}
		out[year] = row
	}
	return out
}

func (n *naiveIntra) DesignRate() map[int]map[topology.Design]float64 {
	out := map[int]map[topology.Design]float64{}
	for _, year := range n.fl.Years() {
		row := map[topology.Design]float64{}
		for _, d := range refDesigns {
			pop := 0
			for _, t := range topology.IntraDCTypes {
				if t.Design() == d {
					pop += n.fl.Population(year, t)
				}
			}
			if pop > 0 {
				row[d] = float64(n.yearDesignCount(year, d)) / float64(pop)
			}
		}
		out[year] = row
	}
	return out
}

func (n *naiveIntra) PopulationBreakdown() map[int]map[topology.DeviceType]float64 {
	out := map[int]map[topology.DeviceType]float64{}
	for _, year := range n.fl.Years() {
		total := n.fl.TotalPopulation(year)
		if total == 0 {
			continue
		}
		row := map[topology.DeviceType]float64{}
		for _, t := range topology.IntraDCTypes {
			if pop := n.fl.Population(year, t); pop > 0 {
				row[t] = float64(pop) / float64(total)
			}
		}
		out[year] = row
	}
	return out
}

// deviceHours is the population of t during year times the hours in a
// 365-day year: MTBI's numerator.
func (n *naiveIntra) deviceHours(year int, t topology.DeviceType) float64 {
	return float64(n.fl.Population(year, t)) * 365 * 24
}

func (n *naiveIntra) MTBI(year int) map[topology.DeviceType]float64 {
	counts := n.yearTypeCounts(year)
	out := map[topology.DeviceType]float64{}
	for _, t := range topology.IntraDCTypes {
		if counts[t] > 0 {
			out[t] = n.deviceHours(year, t) / float64(counts[t])
		}
	}
	return out
}

func (n *naiveIntra) DesignMTBI(year int, d topology.Design) float64 {
	counts := n.yearTypeCounts(year)
	hours, incidents := 0.0, 0
	for _, t := range topology.IntraDCTypes {
		if t.Design() == d {
			hours += n.deviceHours(year, t)
			incidents += counts[t]
		}
	}
	if incidents == 0 {
		return 0
	}
	return hours / float64(incidents)
}

func (n *naiveIntra) P75IRT(year int) map[topology.DeviceType]float64 {
	out := map[topology.DeviceType]float64{}
	for _, t := range topology.IntraDCTypes {
		var res []float64
		for i := range n.reports {
			if r := &n.reports[i]; r.Year == year && n.typeOf(r) == t {
				res = append(res, r.Resolution)
			}
		}
		if p, err := stats.Percentile(res, 75); err == nil {
			out[t] = p
		}
	}
	return out
}

func (n *naiveIntra) P75IRTOverall() map[int]float64 {
	out := map[int]float64{}
	for _, year := range n.Years() {
		var res []float64
		for _, r := range n.reports {
			if r.Year == year {
				res = append(res, r.Resolution)
			}
		}
		if p, err := stats.Percentile(res, 75); err == nil {
			out[year] = p
		}
	}
	return out
}

func (n *naiveIntra) IRTvsScale() []stats.Point {
	p75 := n.P75IRTOverall()
	last := float64(n.fl.TotalPopulation(fleet.LastYear))
	var pts []stats.Point
	for _, year := range n.Years() {
		pts = append(pts, stats.Point{X: p75[year], Y: float64(n.fl.TotalPopulation(year)) / last})
	}
	return pts
}

func (n *naiveIntra) IncidentDurations(year int) (DurationStats, bool) {
	var durations []float64
	for _, r := range n.reports {
		if r.Year == year {
			durations = append(durations, r.Duration)
		}
	}
	if len(durations) == 0 {
		return DurationStats{}, false
	}
	ds := DurationStats{Summary: stats.Summarize(durations)}
	var err error
	if ds.P50, err = stats.Percentile(durations, 50); err != nil {
		return DurationStats{}, false
	}
	if ds.P95, err = stats.Percentile(durations, 95); err != nil {
		return DurationStats{}, false
	}
	return ds, true
}

// intraMethods is the method set compared: IntraAnalysis and naiveIntra
// both satisfy it.
type intraMethods interface {
	RootCauseDistribution() map[sev.RootCause]float64
	RootCauseByDevice() map[sev.RootCause]map[topology.DeviceType]float64
	IncidentRate(year int) map[topology.DeviceType]float64
	SeverityBreakdown(year int) map[sev.Severity]SeverityShare
	SevRatePerDevice() map[int]map[sev.Severity]float64
	SwitchesVsEmployees() []stats.Point
	IncidentFractions() map[int]map[topology.DeviceType]float64
	NormalizedIncidents(baselineYear int) map[int]map[topology.DeviceType]float64
	DesignIncidents(baselineYear int) map[int]map[topology.Design]float64
	DesignRate() map[int]map[topology.Design]float64
	PopulationBreakdown() map[int]map[topology.DeviceType]float64
	MTBI(year int) map[topology.DeviceType]float64
	DesignMTBI(year int, d topology.Design) float64
	P75IRT(year int) map[topology.DeviceType]float64
	P75IRTOverall() map[int]float64
	IRTvsScale() []stats.Point
	IncidentDurations(year int) (DurationStats, bool)
	Years() []int
}

// intraResults evaluates every method of a, each per-year method at every
// study year plus one year either side (which hold no incidents), and the
// baseline-normalized ones against the last year and an empty year.
func intraResults(a intraMethods) map[string]any {
	out := map[string]any{
		"RootCauseDistribution": a.RootCauseDistribution(),
		"RootCauseByDevice":     a.RootCauseByDevice(),
		"SevRatePerDevice":      a.SevRatePerDevice(),
		"SwitchesVsEmployees":   a.SwitchesVsEmployees(),
		"IncidentFractions":     a.IncidentFractions(),
		"DesignRate":            a.DesignRate(),
		"PopulationBreakdown":   a.PopulationBreakdown(),
		"P75IRTOverall":         a.P75IRTOverall(),
		"IRTvsScale":            a.IRTvsScale(),
		"Years":                 a.Years(),
	}
	for _, base := range []int{fleet.LastYear, fleet.FirstYear - 1} {
		out[fmt.Sprintf("NormalizedIncidents(%d)", base)] = a.NormalizedIncidents(base)
		out[fmt.Sprintf("DesignIncidents(%d)", base)] = a.DesignIncidents(base)
	}
	for year := fleet.FirstYear - 1; year <= fleet.LastYear+1; year++ {
		out[fmt.Sprintf("IncidentRate(%d)", year)] = a.IncidentRate(year)
		out[fmt.Sprintf("SeverityBreakdown(%d)", year)] = a.SeverityBreakdown(year)
		out[fmt.Sprintf("MTBI(%d)", year)] = a.MTBI(year)
		out[fmt.Sprintf("P75IRT(%d)", year)] = a.P75IRT(year)
		ds, ok := a.IncidentDurations(year)
		out[fmt.Sprintf("IncidentDurations(%d)", year)] = []any{ds, ok}
		for _, d := range []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric} {
			out[fmt.Sprintf("DesignMTBI(%d, %v)", year, d)] = a.DesignMTBI(year, d)
		}
	}
	return out
}

// compareIntra fails t for every result on which got differs from want.
// The reference does each division and each sum in the analysis's order,
// so results compare by exact float equality, not within a tolerance.
func compareIntra(t *testing.T, label string, got, want map[string]any) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: %s = %v, reference %v", label, k, got[k], want[k])
		}
	}
}

// TestIntraAnalysisMatchesNaiveReference checks every IntraAnalysis
// method against naiveIntra at several seeds, scales 1 and 2 and a
// sub-range run, and checks that the analysis does not change when the
// same reports are reloaded through a WriteJSON → ReadJSON round trip or
// appended through AddAll in batches, the paths dcnrd and sevquery answer
// from.
func TestIntraAnalysisMatchesNaiveReference(t *testing.T) {
	runs := []struct {
		seed     uint64
		scale    int
		from, to int
	}{
		{1, 1, fleet.FirstYear, fleet.LastYear},
		{7, 1, fleet.FirstYear, fleet.LastYear},
		{20181031, 1, fleet.FirstYear, fleet.LastYear},
		{3, 2, fleet.FirstYear, fleet.LastYear},
		{5, 1, 2013, 2015},
	}
	for _, run := range runs {
		label := fmt.Sprintf("seed %d scale %d [%d, %d]", run.seed, run.scale, run.from, run.to)
		fl := fleet.New(run.scale)
		d, err := faults.NewDriver(fl, run.seed)
		if err != nil {
			t.Fatal(err)
		}
		store, err := d.Run(run.from, run.to)
		if err != nil {
			t.Fatal(err)
		}
		reports := store.All()
		want := intraResults(&naiveIntra{reports: reports, fl: fl})
		got := intraResults(NewIntraAnalysis(store, fl))
		compareIntra(t, label, got, want)

		var buf bytes.Buffer
		if err := store.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		reread := sev.NewStore()
		if err := reread.ReadJSON(&buf); err != nil {
			t.Fatal(err)
		}
		compareIntra(t, label+" after WriteJSON→ReadJSON", intraResults(NewIntraAnalysis(reread, fl)), want)

		batched := sev.NewStore()
		for i := 0; i < len(reports); i += 97 {
			if _, err := batched.AddAll(reports[i:min(i+97, len(reports))]); err != nil {
				t.Fatal(err)
			}
		}
		compareIntra(t, label+" after batched AddAll", intraResults(NewIntraAnalysis(batched, fl)), want)
		if t.Failed() {
			return
		}
	}
}
