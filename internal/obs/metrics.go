// Package obs is the telemetry layer of the reproduction: a dependency-free
// (standard library only) metrics registry and trace recorder that the
// simulation, remediation, monitoring, and analysis packages report into.
//
// The paper's whole contribution is measurement, so the pipeline that
// regenerates it must itself be measurable: regressions like the SEV query
// engine silently falling back to sequential scans, or remediation queue
// buildup, are invisible without counters on the hot paths. The design
// constraints, in order:
//
//   - Zero cost when disabled. Every metric type is safe to call through a
//     nil pointer (a no-op), so un-instrumented simulations pay only a
//     predictable nil check.
//   - Safe under concurrency. Counters, gauges, and histogram buckets are
//     lock-free atomics; the registry itself takes a lock only on metric
//     creation and snapshot, never on the observation path.
//   - Standard exposition. A Registry renders as a point-in-time Snapshot
//     (written as JSON by Snapshot.WriteJSON) and as Prometheus text
//     exposition format.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The nil Counter is a valid
// no-op, so instrumented code never branches on "is telemetry attached".
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are a programming error; they are applied
// as-is so tests can detect them in snapshots).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that goes up and down. The nil Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits in ascending order; observations above the last bound land
// in an implicit +Inf bucket. The nil Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~12) and the branch predictor
	// beats binary search at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Batch returns a single-goroutine staging buffer for h: Observe on the
// batch is plain arithmetic (no atomics), and Flush folds the staged
// samples into the shared histogram in one pass. Hot loops that observe
// per event (the DES kernel) stage locally and flush at sync points, so
// concurrent snapshot readers see slightly stale but always consistent
// totals. A nil Histogram returns a nil (no-op) batch.
func (h *Histogram) Batch() *HistogramBatch {
	if h == nil {
		return nil
	}
	return &HistogramBatch{h: h, counts: make([]int64, len(h.counts))}
}

// HistogramBatch stages observations for one Histogram. It is NOT safe for
// concurrent use — one goroutine owns a batch. The nil batch is a no-op.
type HistogramBatch struct {
	h      *Histogram
	counts []int64
	count  int64
	sum    float64
}

// Observe stages one sample.
func (b *HistogramBatch) Observe(v float64) {
	if b == nil {
		return
	}
	bounds := b.h.bounds
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	b.counts[i]++
	b.count++
	b.sum += v
}

// ObserveN stages n samples of value v in one bucket scan — how callers
// that time in windows (one clock read across n events) attribute the
// per-event average to each event.
func (b *HistogramBatch) ObserveN(v float64, n int64) {
	if b == nil || n <= 0 {
		return
	}
	bounds := b.h.bounds
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	b.counts[i] += n
	b.count += n
	b.sum += v * float64(n)
}

// Flush publishes the staged samples to the shared histogram and clears
// the batch. Cheap when nothing is staged.
func (b *HistogramBatch) Flush() {
	if b == nil || b.count == 0 {
		return
	}
	h := b.h
	for i, c := range b.counts {
		if c != 0 {
			h.counts[i].Add(c)
			b.counts[i] = 0
		}
	}
	h.count.Add(b.count)
	b.count = 0
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + b.sum)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	b.sum = 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a Histogram frozen at a point in time. Counts are
// per-bucket (not cumulative); the final entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the bucket that contains
// the target rank — the standard Prometheus histogram_quantile estimate.
// An empty snapshot returns NaN; ranks landing in the +Inf bucket return
// the last finite bound (the estimate saturates, as in Prometheus).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			inBucket := float64(h.Counts[i])
			if inBucket == 0 {
				return bound
			}
			below := float64(cum) - inBucket
			return lower + (bound-lower)*(rank-below)/inBucket
		}
	}
	if len(h.Bounds) == 0 {
		return math.NaN()
	}
	return h.Bounds[len(h.Bounds)-1]
}

// merge folds another histogram snapshot into h. Bucket layouts must
// match; mismatches report an error so callers do not silently sum
// incompatible distributions.
func (h *HistogramSnapshot) merge(other HistogramSnapshot) error {
	if len(other.Bounds) != len(h.Bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d bounds", len(other.Bounds), len(h.Bounds))
	}
	for i := range h.Bounds {
		if h.Bounds[i] != other.Bounds[i] {
			return fmt.Errorf("obs: merging histograms with different bounds at %d: %v vs %v",
				i, h.Bounds[i], other.Bounds[i])
		}
	}
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	return nil
}

// Snapshot is a Registry frozen at a point in time, suitable for JSON
// encoding (it is what the -metrics-out files hold).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Merge folds other into s: counters add, histograms merge bucket-wise
// (same-name histograms must share bucket layouts), and gauges take
// other's value (last writer wins — gauges are point-in-time levels, not
// accumulations). It is how multi-registry runs (one registry per shard
// or per simulation) combine into a single exposition.
func (s *Snapshot) Merge(other Snapshot) error {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] = v
	}
	for name, oh := range other.Histograms {
		mine, ok := s.Histograms[name]
		if !ok {
			mine = HistogramSnapshot{
				Bounds: append([]float64(nil), oh.Bounds...),
				Counts: make([]int64, len(oh.Counts)),
			}
		}
		if err := mine.merge(oh); err != nil {
			return fmt.Errorf("%w (histogram %q)", err, name)
		}
		s.Histograms[name] = mine
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON. Map keys serialize
// sorted, so equal snapshots produce byte-identical output.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Registry holds named metrics. Lookups are get-or-create: the first caller
// of a name defines it, later callers share the same metric. Registering
// one name as two different metric kinds panics — that is a wiring bug, not
// a runtime condition. The zero Registry is not usable; construct with
// NewRegistry. A nil *Registry hands out nil metrics, so a whole subsystem
// can be instrumented or not with a single nil check at wiring time.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

func (r *Registry) checkFree(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.histograms[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Nil registries return a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use. Later calls ignore bounds and return
// the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// Snapshot returns a point-in-time copy of every metric.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative le-labelled buckets with _sum and _count series. Metric
// names are emitted as registered — callers pick exposition-safe
// snake_case names.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, snap.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", name, name, snap.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %v\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promFloat renders a histogram bound the way Prometheus' own exposition
// library does: infinities as +Inf/-Inf, integral bounds with an explicit
// ".0", and the shortest round-trippable decimal otherwise. fmt's %v would
// render the bound 1.0 as a bare "1", which scrapers treat as a different
// series than the "1.0" every other Prometheus client emits — bucket
// continuity would silently break the first time a registry from this
// package replaced one from client_golang.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
