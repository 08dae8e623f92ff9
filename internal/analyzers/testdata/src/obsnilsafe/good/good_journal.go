// The causal journal follows the obs contract: built by journal.New, held
// by pointer, nil meaning journaling is off and every record is dropped
// for free.
package good

import "dcnr/internal/obs/journal"

// Recorder holds the journal by pointer; it is nil when the run is not
// journaled.
type Recorder struct {
	j *journal.Journal
}

// NewRecorder wires a recorder; j may be nil (the no-op journal).
func NewRecorder(j *journal.Journal) *Recorder {
	return &Recorder{j: j}
}

// Note stages one record through the nil-safe journal. Record and ID are
// plain data and move by value freely.
func (r *Recorder) Note(rec journal.Record) journal.ID {
	return r.j.Record(rec)
}

// Fresh builds a journal the sanctioned way.
func Fresh() *journal.Journal { return journal.New(nil, nil, nil) }
