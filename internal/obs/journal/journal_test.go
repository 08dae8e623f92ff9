package journal

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/obs"
)

// chainRecords journals one complete automated-repair chain and one
// escalated incident chain, returning the journal.
func chainJournal() *Journal {
	j := New([]string{"RSW", "CSW"}, []string{"port ping failure"}, []string{"", "SEV1", "SEV2", "SEV3"})

	// Automated repair: raised → detected → ticket → dispatched → repaired.
	raised := j.Record(Record{Kind: FaultRaised, Time: 10, Dev: 0, Class: 0, Sev: -1})
	detected := j.Record(Record{Kind: FaultDetected, Time: 10, Parent: raised, Dev: 0, Class: 0, Sev: -1})
	ticket := j.Record(Record{Kind: TicketCut, Time: 10, Parent: detected, Dev: 0, Class: 0, Sev: -1})
	disp := j.Record(Record{Kind: Dispatched, Time: 10, Parent: ticket, Aux: 24, Dev: 0, Class: 0, Sev: -1})
	j.Record(Record{Kind: Repaired, Time: 34, Parent: disp, Aux: 2.5, Dev: 0, Class: 0, Sev: -1})

	// Escalated incident: raised → detected → ticket → escalated → opened → closed.
	raised2 := j.Record(Record{Kind: FaultRaised, Time: 50, Dev: 1, Class: 0, Sev: -1})
	det2 := j.Record(Record{Kind: FaultDetected, Time: 50, Parent: raised2, Dev: 1, Class: 0, Sev: -1})
	tick2 := j.Record(Record{Kind: TicketCut, Time: 50, Parent: det2, Dev: 1, Class: 0, Sev: -1})
	esc := j.Record(Record{Kind: Escalated, Time: 50, Parent: tick2, Dev: 1, Class: 0, Sev: -1})
	opened := j.Record(Record{Kind: IncidentOpened, Time: 50, Parent: esc, Dev: 1, Class: 0, Sev: 2, Ref: 7})
	j.Record(Record{Kind: IncidentClosed, Time: 54, Parent: opened, Aux: 4, Dev: 1, Class: 0, Sev: 2, Ref: 7})

	j.Flush()
	return j
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	if id := j.Record(Record{Kind: FaultRaised}); id != 0 {
		t.Fatalf("nil journal Record = %d, want 0", id)
	}
	j.Flush()
	if n := j.Len(); n != 0 {
		t.Fatalf("nil journal Len = %d, want 0", n)
	}
	if recs := j.Records(); recs != nil {
		t.Fatalf("nil journal Records = %v, want nil", recs)
	}
	if err := j.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil journal WriteJSONL: %v", err)
	}
	if got := j.Index().Len(); got != 0 {
		t.Fatalf("nil journal Index.Len = %d, want 0", got)
	}
}

func TestIDsAreDenseAndOrdered(t *testing.T) {
	j := chainJournal()
	recs := j.Records()
	if len(recs) != 11 {
		t.Fatalf("Records len = %d, want 11", len(recs))
	}
	for i, r := range recs {
		if r.ID != ID(i+1) {
			t.Fatalf("record %d has ID %d, want %d", i, r.ID, i+1)
		}
	}
	if j.Len() != 11 {
		t.Fatalf("Len = %d, want 11", j.Len())
	}
}

func TestAutoFlushAtBatchFull(t *testing.T) {
	j := New(nil, nil, nil)
	for i := 0; i < obs.LaneBatch; i++ {
		j.Record(Record{Kind: FaultRaised, Time: float64(i), Class: -1, Sev: -1})
	}
	// No explicit Flush: a full staging buffer must have published itself.
	if got := j.Len(); got != obs.LaneBatch {
		t.Fatalf("flushed %d records after %d Records, want auto-flush", got, obs.LaneBatch)
	}
}

func TestChainWalkAndComplete(t *testing.T) {
	x := chainJournal().Index()
	closed := x.Incidents()
	if len(closed) != 1 {
		t.Fatalf("Incidents = %d, want 1", len(closed))
	}
	chain := x.Chain(closed[0].ID)
	wantKinds := []Kind{FaultRaised, FaultDetected, TicketCut, Escalated, IncidentOpened, IncidentClosed}
	if len(chain) != len(wantKinds) {
		t.Fatalf("chain len = %d, want %d", len(chain), len(wantKinds))
	}
	for i, k := range wantKinds {
		if chain[i].Kind != k {
			t.Fatalf("chain[%d].Kind = %s, want %s", i, chain[i].Kind, k)
		}
	}
	if !x.Complete(closed[0].ID) {
		t.Fatalf("incident chain reported incomplete")
	}
	// A record with a dangling parent is incomplete.
	y := NewIndex([]Record{{ID: 9, Parent: 3, Kind: IncidentClosed}}, Names(nil, nil, nil))
	if y.Complete(9) {
		t.Fatalf("dangling chain reported complete")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	j := chainJournal()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n"); n != 11 {
		t.Fatalf("wrote %d lines, want 11:\n%s", n, out)
	}
	if !strings.Contains(out, `"kind":"incident_closed"`) || !strings.Contains(out, `"dev":"CSW"`) {
		t.Fatalf("missing expected fields:\n%s", out)
	}

	x, err := ReadJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if x.Len() != 11 {
		t.Fatalf("read %d records, want 11", x.Len())
	}
	closed := x.Incidents()
	if len(closed) != 1 || !x.Complete(closed[0].ID) {
		t.Fatalf("round-tripped incident chain broken: %+v", closed)
	}
	if closed[0].Ref != 7 || closed[0].Aux != 4 {
		t.Fatalf("round-tripped incident = %+v, want Ref 7 Aux 4", closed[0])
	}

	// The re-encoded stream must be byte-identical: ReadJSONL interning
	// preserves names, and ID order is canonical.
	var buf2 bytes.Buffer
	if err := writeJSONL(&buf2, x.Records(), x.names); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	// Severity ordinals differ after interning (table starts at the first
	// seen name), but the emitted names must match.
	if !strings.Contains(buf2.String(), `"sev":"SEV2"`) {
		t.Fatalf("re-encoded stream lost severity name:\n%s", buf2.String())
	}
}

func TestReadJSONLSkipsHeaderLines(t *testing.T) {
	j := chainJournal()
	var buf bytes.Buffer
	buf.WriteString(`{"run":0,"scenario":"baseline","records":11}` + "\n")
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	x, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if x.Len() != 11 {
		t.Fatalf("read %d records, want 11 (header skipped)", x.Len())
	}
}

// TestReadJSONLNameTableLimits: a stream fills each name table to what
// its ordinal holds (256 devs, 128 classes, 128 severities) and reads
// back every name; one name more is an error, not a wrapped ordinal.
func TestReadJSONLNameTableLimits(t *testing.T) {
	stream := func(n int, field string) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, `{"id":%d,"kind":"fault_raised","t":%d,"dev":"RSW","%s":"n%d"}`+"\n", i+1, i, field, i)
		}
		return sb.String()
	}
	for _, c := range []struct {
		field string
		limit int
	}{{"dev", 256}, {"class", 128}, {"sev", 128}} {
		full := stream(c.limit, c.field)
		x, err := ReadJSONL(strings.NewReader(full))
		if err != nil {
			t.Fatalf("%d distinct %s names: %v", c.limit, c.field, err)
		}
		var buf bytes.Buffer
		if err := x.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), fmt.Sprintf(`"%s":"n%d"`, c.field, c.limit-1)) {
			t.Errorf("%s: last of %d names lost on write-back", c.field, c.limit)
		}
		if _, err := ReadJSONL(strings.NewReader(stream(c.limit+1, c.field))); err == nil {
			t.Errorf("%d distinct %s names accepted", c.limit+1, c.field)
		}
	}
}

func TestSummaryPhaseDecomposition(t *testing.T) {
	s := chainJournal().Index().Summary()
	if s.Records != 11 || s.Faults != 2 || s.Repairs != 1 || s.Escalations != 1 || s.Incidents != 1 {
		t.Fatalf("summary counts = %+v", s)
	}
	if s.CompleteChains != 1 || s.Incomplete != 0 {
		t.Fatalf("chain accounting = %+v", s)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %+v, want RSW and CSW rows", s.Phases)
	}
	rsw := s.Phases[0]
	if rsw.Device != "RSW" || rsw.Repairs != 1 ||
		rsw.MeanDispatchHours != 24 || rsw.MeanRepairSeconds != 2.5 {
		t.Fatalf("RSW phases = %+v", rsw)
	}
	csw := s.Phases[1]
	if csw.Device != "CSW" || csw.Incidents != 1 || csw.MeanResolutionHours != 4 {
		t.Fatalf("CSW phases = %+v", csw)
	}
	if rsw.MeanDetectionHours != 0 {
		t.Fatalf("detection should be 0 by construction, got %g", rsw.MeanDetectionHours)
	}
}

func TestMergeSummaries(t *testing.T) {
	a := Summary{
		Records: 10, Faults: 2, Repairs: 2, Incidents: 1, CompleteChains: 1,
		Phases: []PhaseStats{{Device: "RSW", Faults: 2, Repairs: 2, MeanDispatchHours: 10, MeanRepairSeconds: 4, Incidents: 1, MeanResolutionHours: 2}},
	}
	b := Summary{
		Records: 5, Faults: 1, Repairs: 1, Incidents: 1, CompleteChains: 1,
		Phases: []PhaseStats{
			{Device: "RSW", Faults: 1, Repairs: 1, MeanDispatchHours: 40, MeanRepairSeconds: 1, Incidents: 1, MeanResolutionHours: 6},
			{Device: "FSW", Faults: 0, Repairs: 0},
		},
	}
	m := MergeSummaries([]Summary{a, b})
	if m.Records != 15 || m.Faults != 3 || m.Repairs != 3 || m.Incidents != 2 || m.CompleteChains != 2 {
		t.Fatalf("merged counts = %+v", m)
	}
	if len(m.Phases) != 2 || m.Phases[0].Device != "RSW" || m.Phases[1].Device != "FSW" {
		t.Fatalf("merged phases = %+v", m.Phases)
	}
	rsw := m.Phases[0]
	if rsw.Repairs != 3 || rsw.MeanDispatchHours != 20 { // (2*10 + 1*40) / 3
		t.Fatalf("re-weighted dispatch mean = %+v", rsw)
	}
	if rsw.MeanRepairSeconds != 3 { // (2*4 + 1*1) / 3
		t.Fatalf("re-weighted repair mean = %+v", rsw)
	}
	if rsw.MeanResolutionHours != 4 { // (1*2 + 1*6) / 2
		t.Fatalf("re-weighted resolution mean = %+v", rsw)
	}
}

// TestConcurrentReadersSeeFlushedPrefix checks what the journal adds on
// top of obs.Lane's publication contract (TestLaneWraparoundConcurrentRead
// in internal/obs): readers may index and serialize the journal while the
// writer keeps recording, and the IDs they see form a gap-free prefix.
func TestConcurrentReadersSeeFlushedPrefix(t *testing.T) {
	j := New(nil, nil, nil)
	const total = obs.LaneBatch * 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs := j.Records()
			for i, r := range recs {
				if r.ID != ID(i+1) {
					t.Errorf("reader saw gap: recs[%d].ID = %d", i, r.ID)
					return
				}
			}
			var sink bytes.Buffer
			if err := j.WriteJSONL(&sink); err != nil {
				t.Errorf("WriteJSONL under writer: %v", err)
				return
			}
			_ = j.Index().Summary()
		}
	}()
	for i := 0; i < total; i++ {
		j.Record(Record{Kind: FaultRaised, Time: float64(i), Class: -1, Sev: -1})
	}
	close(stop)
	wg.Wait()
	j.Flush()
	if j.Len() != total {
		t.Fatalf("Len = %d, want %d", j.Len(), total)
	}
}

func BenchmarkLaneRecord(b *testing.B) {
	j := New(nil, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(Record{Kind: FaultRaised, Time: float64(i), Class: -1, Sev: -1})
	}
}

func BenchmarkNilLaneRecord(b *testing.B) {
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(Record{Kind: FaultRaised, Time: float64(i)})
	}
}
