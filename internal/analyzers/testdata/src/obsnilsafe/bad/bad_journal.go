// Hand-rolled journals: only journal.New hands out a journal with its
// name tables fixed, and only a pointer can be the nil no-op.
package bad

import "dcnr/internal/obs/journal"

// Recorder holds a journal by value: copying forks the ID counter and the
// ring, minting colliding causal IDs.
type Recorder struct {
	journal journal.Journal
}

// HiddenJournal builds journals that bypass the constructor.
func HiddenJournal() *journal.Journal {
	_ = journal.Journal{}
	return new(journal.Journal)
}

// CopiedRing takes a journal by value, forking its staging ring.
func CopiedRing(l journal.Journal) {}
