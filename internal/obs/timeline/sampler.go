package timeline

import "dcnr/internal/obs"

// column is one tracked registry series: exactly one of counter/gauge is
// set, and last is the value at the previous sample so unchanged series
// record nothing.
type column struct {
	col     int32
	counter *obs.Counter
	gauge   *obs.Gauge
	last    float64
}

// Sampler reads a fixed set of registry series on each tick and records
// the ones that changed into its timeline. Construct with
// NewSampler; a nil *Sampler is a valid no-op, and the tracked series are
// resolved once at construction so a tick costs one atomic load per
// column and nothing else.
type Sampler struct {
	tl   *Timeline
	cols []column
}

// NewSampler builds a sampler over reg feeding t. The
// counters and gauges slices name the registry series to track (resolved
// get-or-create, so a series that never fires simply never records).
// Returns nil — a valid no-op — when t or reg is nil.
func NewSampler(t *Timeline, reg *obs.Registry, counters, gauges []string) *Sampler {
	if t == nil || reg == nil {
		return nil
	}
	s := &Sampler{tl: t}
	for _, name := range counters {
		s.cols = append(s.cols, column{col: t.Column(name), counter: reg.Counter(name)})
	}
	for _, name := range gauges {
		s.cols = append(s.cols, column{col: t.Column(name), gauge: reg.Gauge(name)})
	}
	return s
}

// Sample records every tracked series whose value changed since the last
// call, stamped with now (simulation hours on the DES grid). Single-writer
// like the timeline it feeds; no-op on a nil sampler.
//
//hot:noalloc
func (s *Sampler) Sample(now float64) {
	if s == nil {
		return
	}
	for i := range s.cols {
		c := &s.cols[i]
		var v float64
		if c.counter != nil {
			v = float64(c.counter.Value())
		} else {
			v = c.gauge.Value()
		}
		if v == c.last {
			continue
		}
		c.last = v
		s.tl.Record(c.col, now, v)
	}
}

// Flush publishes the timeline's staged samples; the faults driver calls
// it at the end of Run.
func (s *Sampler) Flush() {
	if s == nil {
		return
	}
	s.tl.Flush()
}
