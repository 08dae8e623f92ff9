package obs

import "testing"

// The micro-benchmarks bound the per-observation cost the instrumented hot
// paths pay (`scripts/bench.sh obs` records them into BENCH_obs.json next to
// the end-to-end overhead numbers).

func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_hist", []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkObsTracerSpan(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin("bench", "span").End()
	}
}

func BenchmarkObsTracerSpanNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin("bench", "span").End()
	}
}

func BenchmarkObsSpanRingRecord(b *testing.B) {
	r := NewTracer().Ring(SimPID, 1, "bench", "span", "a", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(-1, float64(i), 1, 2, 3, 0)
	}
}
