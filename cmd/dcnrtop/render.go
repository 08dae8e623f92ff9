package main

import (
	"fmt"
	"strings"

	"dcnr"
)

// sparkTicks are the eight block glyphs a sparkline quantizes into.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// renderFrame assembles one full dashboard frame: header, progress bar,
// per-scenario throughput table, and the campaign's sparkline series.
// It is a pure function of the snapshot, so frames are directly testable.
func renderFrame(cs dcnr.SweepCampaignStatus, width int) string {
	if width < 40 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dcnr campaign  %d/%d done  %d running  %d failed  elapsed %s\n",
		cs.Completed, cs.Total, cs.Running, cs.Failed, fmtSeconds(cs.ElapsedSeconds))
	if cs.Events > 0 {
		fmt.Fprintf(&b, "simulated %s events, %s sim-hours across completed runs\n",
			fmtCount(float64(cs.Events)), fmtCount(cs.SimHours))
	}
	b.WriteString(progressBar(cs.Completed+cs.Failed, cs.Total, width-10))
	b.WriteString("\n\n")
	b.WriteString(scenarioTable(cs.Runs))
	if len(cs.Runs) > 0 {
		b.WriteString("\n")
		b.WriteString(sparklineSection(cs, width))
	}
	return b.String()
}

// progressBar renders completion as a fixed-width bar: █ done, ░ to go.
func progressBar(done, total, width int) string {
	if width < 1 {
		width = 1
	}
	filled := 0
	if total > 0 {
		filled = done * width / total
	}
	if filled > width {
		filled = width
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	return fmt.Sprintf("[%s%s] %3.0f%%",
		strings.Repeat("█", filled), strings.Repeat("░", width-filled), pct)
}

// scenarioRow is one scenario's aggregate over the campaign grid.
type scenarioRow struct {
	name       string
	done       int
	total      int
	running    int
	failed     int
	stragglers int
	evPerSec   float64 // mean over completed runs
	simHPerSec float64 // mean over completed runs
}

// scenarioRows folds the per-run grid into one row per scenario, in first-
// appearance (grid) order.
func scenarioRows(runs []dcnr.SweepRunStatus) []scenarioRow {
	idx := make(map[string]int)
	var rows []scenarioRow
	for _, r := range runs {
		i, ok := idx[r.Scenario]
		if !ok {
			i = len(rows)
			idx[r.Scenario] = i
			rows = append(rows, scenarioRow{name: r.Scenario})
		}
		row := &rows[i]
		row.total++
		switch r.State {
		case "done":
			row.done++
			row.evPerSec += r.EventsPerSec
			row.simHPerSec += r.SimHoursPerSec
		case "running":
			row.running++
		case "failed":
			row.failed++
		}
		if r.Straggler {
			row.stragglers++
		}
	}
	for i := range rows {
		if rows[i].done > 0 {
			rows[i].evPerSec /= float64(rows[i].done)
			rows[i].simHPerSec /= float64(rows[i].done)
		}
	}
	return rows
}

// scenarioTable renders the per-scenario throughput table.
func scenarioTable(runs []dcnr.SweepRunStatus) string {
	rows := scenarioRows(runs)
	if len(rows) == 0 {
		return "(no runs)\n"
	}
	nameW := len("scenario")
	for _, r := range rows {
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %9s  %7s  %10s  %10s  %s\n",
		nameW, "scenario", "done", "running", "events/s", "sim-h/s", "notes")
	for _, r := range rows {
		notes := ""
		if r.failed > 0 {
			notes = fmt.Sprintf("%d failed", r.failed)
		}
		if r.stragglers > 0 {
			if notes != "" {
				notes += ", "
			}
			notes += fmt.Sprintf("%d straggling", r.stragglers)
		}
		fmt.Fprintf(&b, "%-*s  %5d/%-3d  %7d  %10s  %10s  %s\n",
			nameW, r.name, r.done, r.total, r.running,
			fmtCount(r.evPerSec), fmtCount(r.simHPerSec), notes)
	}
	return b.String()
}

// The series campaignSeries derives, indexed by these constants and
// labelled by seriesNames.
const (
	seriesDone = iota
	seriesFailed
	seriesFaults
	seriesIncidents
	seriesRunning
	numSeries
)

var seriesNames = [numSeries]string{"done", "failed", "faults", "incidents", "running"}

// campaignSeries derives the dashboard's series from one campaign
// snapshot, each evaluated at n evenly spaced instants over
// [0, ElapsedSeconds]: runs done, runs failed, the faults and incidents
// of the done runs, and runs running. A done or failed run ended at
// StartSeconds + ElapsedSeconds; a running run has no end yet. Counts are
// summed as float64 and negative ones count as zero, so the cumulative
// series never fall, whatever the snapshot holds.
func campaignSeries(cs dcnr.SweepCampaignStatus, n int) [numSeries][]float64 {
	n = max(n, 0)
	var out [numSeries][]float64
	for i := range out {
		out[i] = make([]float64, n)
	}
	span := max(cs.ElapsedSeconds, 0)
	for k := range n {
		t := span
		if n > 1 {
			t = span * (float64(k) / float64(n-1))
		}
		for _, r := range cs.Runs {
			start := r.StartSeconds
			switch r.State {
			case "running":
				if start <= t {
					out[seriesRunning][k]++
				}
			case "done", "failed":
				if t < start+r.ElapsedSeconds {
					if start <= t {
						out[seriesRunning][k]++
					}
				} else if r.State == "failed" {
					out[seriesFailed][k]++
				} else {
					out[seriesDone][k]++
					out[seriesFaults][k] += float64(max(r.Faults, 0))
					out[seriesIncidents][k] += float64(max(r.Incidents, 0))
				}
			}
		}
	}
	return out
}

// sparklineSection renders one sparkline row per campaign series over the
// campaign so far, each ending in its current value.
func sparklineSection(cs dcnr.SweepCampaignStatus, width int) string {
	nameW := 0
	for _, m := range seriesNames {
		nameW = max(nameW, len(m))
	}
	sparkW := max(width-nameW-16, 8)
	var b strings.Builder
	for i, vals := range campaignSeries(cs, sparkW) {
		fmt.Fprintf(&b, "%-*s %s %s\n", nameW, seriesNames[i], sparkline(vals, sparkW), fmtCount(vals[len(vals)-1]))
	}
	return b.String()
}

// sparkline quantizes the last width values into the eight block glyphs,
// scaled between the window's min and max (a flat series renders as the
// lowest block).
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	if len(vals) == 0 {
		return strings.Repeat(" ", width)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		tick := 0
		if hi > lo {
			tick = int((v - lo) / (hi - lo) * float64(len(sparkTicks)-1))
		}
		b.WriteRune(sparkTicks[tick])
	}
	if pad := width - len(vals); pad > 0 {
		b.WriteString(strings.Repeat(" ", pad))
	}
	return b.String()
}

// fmtCount humanizes a non-negative magnitude: 950, 8.2k, 71.5M.
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// fmtSeconds renders a duration in whole seconds as 1h02m03s style.
func fmtSeconds(s float64) string {
	sec := int(s)
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%dh%02dm%02ds", sec/3600, sec%3600/60, sec%60)
	case sec >= 60:
		return fmt.Sprintf("%dm%02ds", sec/60, sec%60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}
