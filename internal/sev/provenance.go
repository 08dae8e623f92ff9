package sev

import (
	"dcnr/internal/obs/journal"
)

// Provenance is the causal-chain summary a journal attaches to one SEV
// report: which journal records explain the incident and how long the
// fault spent in each lifecycle phase. It lives in a side store keyed by
// report ID — Report's JSON serialization is a stable external format and
// does not change when provenance is attached.
//
// This is the journal→SEV bridge: a daemon serving the SEV database can
// answer "why did this incident happen" from the store alone, without
// re-reading the journal stream.
type Provenance struct {
	// SEV is the report ID this provenance explains.
	SEV int `json:"sev"`
	// Records is the incident's causal chain, root (fault_raised) first.
	Records []journal.ID `json:"records"`
	// FaultRaisedHours is the simulation time the root fault occurred.
	FaultRaisedHours float64 `json:"fault_raised_hours"`
	// DetectionHours is the raised→detected lag.
	DetectionHours float64 `json:"detection_hours"`
	// Escalated reports whether the incident went through the automated
	// remediation engine before escalating (false for pre-automation
	// incidents, which went straight from detection to a SEV).
	Escalated bool `json:"escalated"`
	// ResolutionHours is the incident's resolution time.
	ResolutionHours float64 `json:"resolution_hours"`
}

// SetProvenance attaches provenance to the report with the given ID.
// Unknown IDs are rejected so a stale journal cannot seed orphan entries.
func (s *Store) SetProvenance(id int, p Provenance) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.posLocked(id); !ok {
		return false
	}
	if s.provenance == nil {
		s.provenance = make(map[int]Provenance)
	}
	s.provenance[id] = p
	return true
}

// Provenance returns the causal provenance attached to the report with
// the given ID, if any.
func (s *Store) Provenance(id int) (Provenance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.provenance[id]
	return p, ok
}

// AttachJournal walks every closed incident in the journal index and
// attaches its causal chain to the matching SEV report in the store.
// Incidents whose Ref is unknown to the store (a journal from a different
// run) are skipped. Returns how many reports gained provenance.
func AttachJournal(s *Store, x *journal.Index) int {
	n := 0
	for _, closed := range x.Incidents() {
		if closed.Ref == 0 {
			continue
		}
		chain := x.Chain(closed.ID)
		p := Provenance{
			SEV:             int(closed.Ref),
			ResolutionHours: closed.Aux,
		}
		var raised, detected float64
		for _, r := range chain {
			p.Records = append(p.Records, r.ID)
			switch r.Kind {
			case journal.FaultRaised:
				raised = r.Time
			case journal.FaultDetected:
				detected = r.Time
			case journal.Escalated:
				p.Escalated = true
			}
		}
		p.FaultRaisedHours = raised
		p.DetectionHours = detected - raised
		if s.SetProvenance(int(closed.Ref), p) {
			n++
		}
	}
	return n
}
