// The causal journal follows the obs contract: built by journal.New, lanes
// handed out by Journal.Lane, both held by pointer, nil meaning journaling
// is off and every record is dropped for free.
package good

import "dcnr/internal/obs/journal"

// Recorder holds the journal and one lane by pointer; both are nil when
// the run is not journaled.
type Recorder struct {
	j    *journal.Journal
	lane *journal.Lane
}

// NewRecorder wires a recorder; j may be nil (the no-op journal, whose
// Lane method returns the no-op lane).
func NewRecorder(j *journal.Journal) *Recorder {
	return &Recorder{j: j, lane: j.Lane()}
}

// Note stages one record through the nil-safe lane. Record and ID are
// plain data and move by value freely.
func (r *Recorder) Note(rec journal.Record) journal.ID {
	return r.lane.Record(rec)
}

// Fresh builds a journal the sanctioned way.
func Fresh() *journal.Journal { return journal.New() }
