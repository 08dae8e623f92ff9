package health

import (
	"testing"

	"dcnr/internal/topology"
)

// BenchmarkHealthRecordIncident measures the per-incident cost on the
// simulation's hot path: a sorted insert plus counter bumps.
func BenchmarkHealthRecordIncident(b *testing.B) {
	e, err := New(testTargets(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.RecordIncident(float64(i), topology.RSW, 5)
	}
}

// BenchmarkHealthRecordIncidentNil is the uninstrumented no-op cost every
// run pays when no engine is configured.
func BenchmarkHealthRecordIncidentNil(b *testing.B) {
	var e *Engine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.RecordIncident(float64(i), topology.RSW, 5)
	}
}

// BenchmarkHealthEvaluate measures one daily evaluation tick over a year
// of incident history: window counts, burn rates, and the rule state
// machine.
func BenchmarkHealthEvaluate(b *testing.B) {
	e, err := New(testTargets(), nil)
	if err != nil {
		b.Fatal(err)
	}
	seedIncidents(e, 100, 0, hoursPerYear)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(hoursPerYear + float64(i%365)*24)
	}
}

// BenchmarkHealthReport measures building the full SLO report.
func BenchmarkHealthReport(b *testing.B) {
	e, err := New(testTargets(), nil)
	if err != nil {
		b.Fatal(err)
	}
	seedIncidents(e, 100, 0, hoursPerYear)
	e.Evaluate(hoursPerYear)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Report()
	}
}
