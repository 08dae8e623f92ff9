package timeline

import (
	"io"
	"testing"

	"dcnr/internal/obs"
)

// BenchmarkObsTimelineSample is the hot-path cost of one cadence tick
// over a typical tracked set (8 columns, one changed): must stay ≤50ns
// and 0 allocs/op — the timeline's end-to-end budget rests on it.
func BenchmarkObsTimelineSample(b *testing.B) {
	reg := obs.NewRegistry()
	tl := New()
	counters := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	gauges := []string{"g0", "g1"}
	s := NewSampler(tl, reg, counters, gauges)
	c := reg.Counter("c0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		s.Sample(float64(i))
	}
}

func BenchmarkObsTimelineSampleNil(b *testing.B) {
	var s *Sampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(float64(i))
	}
}

func BenchmarkObsTimelineRecord(b *testing.B) {
	tl := New()
	col := tl.Column("series")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Record(col, float64(i), float64(i))
	}
}

func BenchmarkObsTimelineRecordNil(b *testing.B) {
	var tl *Timeline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Record(0, float64(i), float64(i))
	}
}

func BenchmarkObsTimelineWriteJSONL(b *testing.B) {
	tl := New()
	col := tl.Column("des_events_fired_total")
	for i := 0; i < 4096; i++ {
		tl.Record(col, float64(i)*24, float64(i*3))
	}
	tl.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tl.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
