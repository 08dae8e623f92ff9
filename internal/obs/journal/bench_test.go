package journal

import (
	"io"
	"testing"
)

// benchJournal builds a journal shaped like a real dcsim run: the faults
// driver's and the remediation engine's records interleaved, five per
// fault.
func benchJournal(n int) *Journal {
	j := New([]string{"rack_switch", "fabric_switch"}, []string{"connectivity"}, []string{"sev3"})
	for i := 0; i < n; i++ {
		t := float64(i) * 0.25
		raised := j.Record(Record{Kind: FaultRaised, Time: t, Dev: uint8(i % 2), Class: 0, Sev: -1})
		detected := j.Record(Record{Kind: FaultDetected, Parent: raised, Time: t, Dev: uint8(i % 2), Class: 0, Sev: -1})
		ticket := j.Record(Record{Kind: TicketCut, Parent: detected, Time: t, Dev: uint8(i % 2), Class: 0, Sev: -1})
		disp := j.Record(Record{Kind: Dispatched, Parent: ticket, Time: t + 0.1, Aux: 0.1, Dev: uint8(i % 2), Class: 0, Sev: -1})
		j.Record(Record{Kind: Repaired, Parent: disp, Time: t + 0.2, Aux: 42, Dev: uint8(i % 2), Class: 0, Sev: -1})
	}
	j.Flush()
	return j
}

// benchN approximates one dcsim run's fault count (~350k records total).
const benchN = 70000

func BenchmarkObsJournalRecord(b *testing.B) {
	j := New(nil, nil, nil)
	r := Record{Kind: FaultRaised, Time: 1.5, Dev: 1, Class: 0, Sev: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(r)
	}
}

func BenchmarkObsJournalRecordNil(b *testing.B) {
	var j *Journal
	r := Record{Kind: FaultRaised, Time: 1.5}
	for i := 0; i < b.N; i++ {
		j.Record(r)
	}
}

func BenchmarkObsJournalRecords(b *testing.B) {
	j := benchJournal(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(j.Records()); got != 5*benchN {
			b.Fatalf("got %d records", got)
		}
	}
}

func BenchmarkObsJournalIndex(b *testing.B) {
	j := benchJournal(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = j.Index()
	}
}

func BenchmarkObsJournalWriteJSONL(b *testing.B) {
	x := benchJournal(benchN).Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsJournalSummary(b *testing.B) {
	x := benchJournal(benchN).Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Summary()
	}
}
