// Package bad hand-rolls obs metrics instead of wiring them through a
// Registry, so they are invisible to every exposition path and lose the
// nil-pointer no-op contract.
package bad

import "dcnr/internal/obs"

// Collector holds a counter by value: copying the struct forks the
// counter's atomics, and the field can never be the nil no-op.
type Collector struct {
	events obs.Counter
}

// Hidden builds metrics no Snapshot or Prometheus endpoint will ever
// see.
func Hidden() *obs.Gauge {
	_ = obs.Registry{}
	h := new(obs.Histogram)
	h.Observe(1)
	return &obs.Gauge{}
}

// Record takes a histogram by value — observations land on a copy.
func Record(h obs.Histogram) {
	h.Observe(1)
}
