// Package good is the clean counterpart of simtaint/bad: sim-time values
// into sinks, wall-clock values confined to telemetry, sorted map
// accumulation, and an explicit allow for an intentional wall field.
package good

import (
	"sort"
	"time"

	"dcnr/internal/des"
	"dcnr/internal/obs"
	"dcnr/internal/obs/journal"
	"dcnr/internal/sev"
)

// simTime: values derived from the simulation clock are clean.
func simTime(l *journal.Journal, sim *des.Simulator) {
	now := sim.Now()
	l.Record(journal.Record{Time: now})
}

// telemetry: wall-clock readings into metrics are not sink-bound, so no
// directive is needed — the whole point of taint over syntax.
func telemetry(h *obs.Histogram, t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// sortedAccumulation: sorting clears the map-order bit before the sink.
func sortedAccumulation(s *sev.Store, durs map[string]float64) error {
	var reports []sev.Report
	for dev, d := range durs {
		reports = append(reports, sev.Report{Device: dev, Duration: d})
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Device < reports[j].Device })
	for _, r := range reports {
		if _, err := s.Add(r); err != nil {
			return err
		}
	}
	return nil
}

// intentional: a deliberate wall-clock field rides with an allow
// directive naming the analyzer.
func intentional(l *journal.Journal) {
	wall := float64(time.Now().UnixNano())
	l.Record(journal.Record{Aux: wall}) //lint:allow simtaint intentional wall-clock provenance field
}

// cleanWrapper forwards its record to the sink; clean callers stay
// silent even though the wrapper's summary marks the parameter.
func cleanWrapper(l *journal.Journal, r journal.Record) {
	l.Record(r)
}

func callsCleanWrapper(l *journal.Journal, sim *des.Simulator) {
	cleanWrapper(l, journal.Record{Time: sim.Now()})
}
