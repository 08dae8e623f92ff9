// Package bad exercises simtaint: wall-clock and map-order taint flowing
// through locals, helpers, and parameters into deterministic-output
// sinks. Every finding position is pinned by the driver test.
package bad

import (
	"time"

	"dcnr/internal/obs/journal"
	"dcnr/internal/sev"
)

// direct: a wall-clock read flows through two locals and a composite
// literal into the journal.
func direct(l *journal.Journal, t0 time.Time) {
	elapsed := time.Since(t0).Hours()
	rec := journal.Record{Time: elapsed}
	l.Record(rec) // wall taint at the sink
}

// stamp launders the wall clock through a helper return: the syntactic
// checker sees no banned call anywhere near the sink.
func stamp() float64 {
	ns := time.Now().UnixNano()
	return float64(ns)
}

func viaHelper(l *journal.Journal) {
	r := journal.Record{Aux: stamp()}
	l.Record(r) // wall taint via stamp()
}

// sinkWrapper's parameter reaches the sink, so its summary marks it a
// derived sink and tainted CALLERS are flagged at their call site.
func sinkWrapper(l *journal.Journal, r journal.Record) {
	l.Record(r)
}

func callsWrapper(l *journal.Journal) {
	sinkWrapper(l, journal.Record{Time: stamp()}) // via sinkWrapper
}

// mapOrder: reports accumulated in map iteration order reach the sev
// store unsorted.
func mapOrder(s *sev.Store, durs map[string]float64) error {
	var reports []sev.Report
	for dev, d := range durs {
		reports = append(reports, sev.Report{Device: dev, Duration: d})
	}
	for _, r := range reports {
		if _, err := s.Add(r); err != nil { // map-order taint
			return err
		}
	}
	return nil
}
