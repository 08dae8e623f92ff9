package faults

import (
	"bytes"
	"testing"

	"dcnr/internal/fleet"
	"dcnr/internal/obs/journal"
	"dcnr/internal/observe"
	"dcnr/internal/sev"
)

// journaledRun runs [from, to] at the given seed with a journal attached
// and returns the driver, store, and journal.
func journaledRun(t *testing.T, seed uint64, from, to int) (*Driver, *sev.Store, *journal.Journal) {
	t.Helper()
	d, err := NewDriver(fleet.New(1), seed)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	j := NewJournal()
	d.Observe(observe.Observe{Journal: j})
	store, err := d.Run(from, to)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return d, store, j
}

// TestJournalChainsComplete is the core causal invariant: every record —
// and in particular every closed incident — resolves to a complete chain
// rooted at a FaultRaised record, across both the manual era (2011–2012)
// and the automated era.
func TestJournalChainsComplete(t *testing.T) {
	d, store, j := journaledRun(t, 42, fleet.FirstYear, fleet.AutomatedRepairYear)
	x := j.Index()
	if x.Len() == 0 {
		t.Fatalf("journaled run produced no records")
	}
	s := x.Summary()
	if s.Faults != d.Faults() {
		t.Fatalf("journal faults = %d, driver faults = %d", s.Faults, d.Faults())
	}
	if s.Incidents != d.Incidents() {
		t.Fatalf("journal incidents = %d, driver incidents = %d", s.Incidents, d.Incidents())
	}
	if s.Incidents == 0 {
		t.Fatalf("run produced no incidents; widen the year range")
	}
	if s.CompleteChains != s.Incidents || s.Incomplete != 0 {
		t.Fatalf("%d/%d incident chains complete (%d incomplete)",
			s.CompleteChains, s.Incidents, s.Incomplete)
	}
	for _, closed := range x.Incidents() {
		if !x.Complete(closed.ID) {
			t.Fatalf("incident %d (SEV %d) has a broken chain: %+v",
				closed.ID, closed.Ref, x.Chain(closed.ID))
		}
		if closed.Ref == 0 {
			t.Fatalf("incident %d carries no SEV reference", closed.ID)
		}
		if _, err := store.Get(int(closed.Ref)); err != nil {
			t.Fatalf("incident %d references unknown SEV %d: %v", closed.ID, closed.Ref, err)
		}
	}
	// Automated-era incidents must have gone through the remediation
	// engine: their chains carry ticket_cut and escalated records.
	sawEscalated := false
	for _, closed := range x.Incidents() {
		for _, r := range x.Chain(closed.ID) {
			if r.Kind == journal.Escalated {
				sawEscalated = true
			}
		}
	}
	if !sawEscalated {
		t.Fatalf("no incident chain passed through an escalation record")
	}
}

// TestJournalMidRunSnapshotsArePrefixes pins what a live reader of a
// running simulation sees: every mid-run snapshot holds exactly the IDs
// 1..n, and every closed incident in it has a complete chain. The
// snapshots are taken from a sample hook every 30 simulated days, while
// the driver and the remediation engine keep recording.
func TestJournalMidRunSnapshotsArePrefixes(t *testing.T) {
	d, err := NewDriver(fleet.New(1), 42)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	j := NewJournal()
	d.Observe(observe.Observe{Journal: j})
	snapshots, nonEmpty := 0, 0
	d.sim.SetSampleHook(24*30, func(now float64) {
		snapshots++
		recs := j.Records()
		if len(recs) > 0 {
			nonEmpty++
		}
		for i, r := range recs {
			if r.ID != journal.ID(i+1) {
				t.Errorf("snapshot at t=%g: recs[%d].ID = %d, want %d (%d records)",
					now, i, r.ID, i+1, len(recs))
				break
			}
		}
		if s := j.Index().Summary(); s.Incomplete != 0 {
			t.Errorf("snapshot at t=%g: %d incomplete chains among %d incidents",
				now, s.Incomplete, s.Incidents)
		}
	})
	if _, err := d.Run(2013, 2014); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if nonEmpty < 12 {
		t.Fatalf("%d of %d snapshots saw records; want a year's worth", nonEmpty, snapshots)
	}
}

// TestJournalDoesNotPerturbDataset pins the no-observer-effect contract:
// the same seed produces a byte-identical SEV dataset with and without a
// journal attached.
func TestJournalDoesNotPerturbDataset(t *testing.T) {
	_, journaled, _ := journaledRun(t, 7, fleet.FirstYear, fleet.AutomatedRepairYear)

	plain, err := NewDriver(fleet.New(1), 7)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	plainStore, err := plain.Run(fleet.FirstYear, fleet.AutomatedRepairYear)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var a, b bytes.Buffer
	if err := journaled.WriteJSON(&a); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := plainStore.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("journaled run changed the SEV dataset (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestJournalDeterministicAcrossRuns pins that two identically-seeded
// journaled runs serialize byte-identical JSONL.
func TestJournalDeterministicAcrossRuns(t *testing.T) {
	_, _, j1 := journaledRun(t, 11, fleet.AutomatedRepairYear, fleet.AutomatedRepairYear)
	_, _, j2 := journaledRun(t, 11, fleet.AutomatedRepairYear, fleet.AutomatedRepairYear)
	var a, b bytes.Buffer
	if err := j1.WriteJSONL(&a); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := j2.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("journal JSONL not deterministic (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestAttachJournalProvenance pins the journal→SEV bridge: every incident
// in the store gains a provenance side record with a root-first chain,
// and the store's JSON serialization is unchanged by the attachment.
func TestAttachJournalProvenance(t *testing.T) {
	_, store, j := journaledRun(t, 42, fleet.FirstYear, fleet.AutomatedRepairYear)
	var before bytes.Buffer
	if err := store.WriteJSON(&before); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	x := j.Index()
	n := sev.AttachJournal(store, x)
	if n != store.Len() {
		t.Fatalf("AttachJournal attached %d of %d reports", n, store.Len())
	}
	reports := store.Query().Reports()
	for _, r := range reports {
		p, ok := store.Provenance(r.ID)
		if !ok {
			t.Fatalf("SEV %d has no provenance", r.ID)
		}
		if p.SEV != r.ID || len(p.Records) < 3 {
			t.Fatalf("SEV %d provenance = %+v", r.ID, p)
		}
		root, ok := x.Get(p.Records[0])
		if !ok || root.Kind != journal.FaultRaised {
			t.Fatalf("SEV %d provenance chain does not start at fault_raised: %+v", r.ID, p)
		}
		if p.ResolutionHours != r.Resolution {
			t.Fatalf("SEV %d provenance resolution %g != report %g", r.ID, p.ResolutionHours, r.Resolution)
		}
	}

	var after bytes.Buffer
	if err := store.WriteJSON(&after); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("attaching provenance changed the report serialization")
	}
}
