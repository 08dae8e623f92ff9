// Package chain is the engine's summary-propagation fixture: two 3-deep
// call chains, one carrying wall-clock taint UP through returns, one
// carrying a sink obligation UP through parameters. The engine test
// asserts the computed summaries directly, independent of any analyzer's
// reporting.
package chain

import (
	"time"

	"dcnr/internal/obs/journal"
)

// Return chain: C reads the wall clock, B forwards it, A's result must be
// summarized wall-tainted after three propagation hops.
func C() float64 { return float64(time.Now().UnixNano()) }

func B() float64 { return C() }

func A() float64 { return B() }

// Parameter chain: C2 writes its record parameter to the journal sink,
// so A2's summary must mark its record parameter sink-bound two hops up.
func C2(l *journal.Journal, r journal.Record) { l.Record(r) }

func B2(l *journal.Journal, r journal.Record) { C2(l, r) }

func A2(l *journal.Journal, r journal.Record) { B2(l, r) }

// Mixed: passes a clean constant through the sink chain — no taint, no
// finding, but the sink summary still propagates.
func Clean(l *journal.Journal) { A2(l, journal.Record{Time: 1}) }
