// Package regression is the seeded-mutation proof for simtaint: this
// package imports neither dcnr/internal/des nor dcnr/internal/simrand, so
// it is OUTSIDE simdeterminism's scope — the old syntactic analyzer
// reports nothing here by construction. The wall clock still leaks into
// the journal encoder, three value hops from the time.Now call. The
// driver test asserts simdeterminism finds 0 and simtaint finds exactly 1.
package regression

import (
	"time"

	"dcnr/internal/obs/journal"
)

// stamp reads the wall clock far from any sink.
func stamp() float64 {
	return float64(time.Now().UnixNano())
}

// annotate copies the stamp through a struct field.
func annotate(r journal.Record) journal.Record {
	r.Aux = stamp()
	return r
}

// Emit writes the laundered wall-clock value into the deterministic
// journal stream.
func Emit(l *journal.Journal, r journal.Record) {
	l.Record(annotate(r)) // the only finding in this package
}
