package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("events_total") != c {
		t.Error("get-or-create returned a different counter")
	}

	g := r.Gauge("queue_depth")
	g.Set(10)
	g.Add(-3.5)
	if g.Value() != 6.5 {
		t.Errorf("gauge = %v, want 6.5", g.Value())
	}
	if r.Gauge("queue_depth") != g {
		t.Error("get-or-create returned a different gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["latency"]
	// 0.5 and 1 ≤ 1; 5 ≤ 10; 50 ≤ 100; 500 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d", snap.Count)
	}
	if snap.Sum != 556.5 {
		t.Errorf("sum = %v", snap.Sum)
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Errorf("direct accessors: count %d sum %v", h.Count(), h.Sum())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics recorded values")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("dual")
}

func TestBadHistogramBoundsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("bad", []float64{10, 5})
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker races on the same names: creation and
			// observation must both be safe.
			c := r.Counter("hits")
			h := r.Histogram("obs", []float64{0.5})
			g := r.Gauge("level")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("obs", nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("obs", nil).Sum(); got != workers*per {
		t.Errorf("histogram sum = %v, want %d", got, workers*per)
	}
	if got := r.Gauge("level").Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("des_events_fired_total").Add(42)
	r.Gauge("des_queue_depth").Set(7)
	h := r.Histogram("event_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE des_events_fired_total counter",
		"des_events_fired_total 42",
		"# TYPE des_queue_depth gauge",
		"des_queue_depth 7",
		"# TYPE event_seconds histogram",
		`event_seconds_bucket{le="0.1"} 1`,
		`event_seconds_bucket{le="1.0"} 2`, // cumulative; integral bound gets ".0"
		`event_seconds_bucket{le="+Inf"} 3`,
		"event_seconds_sum 5.55",
		"event_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusLeBoundsCanonical pins the le label format against what a
// Prometheus scraper expects: integral bounds carry an explicit ".0" (so
// buckets stay continuous with series written by client_golang), fractional
// bounds are the shortest round-trippable decimal, and every value — +Inf
// included — parses back with strconv.ParseFloat the way the exposition
// parser does.
func TestPrometheusLeBoundsCanonical(t *testing.T) {
	bounds := []float64{0.005, 0.25, 1, 2.5, 10, 1e6}
	r := NewRegistry()
	r.Histogram("req_seconds", bounds).Observe(0.1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	// Scrape the le values back out of the bucket lines, parser-style.
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "req_seconds_bucket{le=") {
			continue
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(strings.Fields(line)[0], "req_seconds_bucket{le="), "}")
		le, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("unquoting le label in %q: %v", line, err)
		}
		got = append(got, le)
	}
	want := []string{"0.005", "0.25", "1.0", "2.5", "10.0", "1e+06", "+Inf"}
	if len(got) != len(want) {
		t.Fatalf("le values = %v, want %v", got, want)
	}
	for i, le := range got {
		if le != want[i] {
			t.Errorf("le[%d] = %q, want %q", i, le, want[i])
		}
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Errorf("le %q does not parse as a float: %v", le, err)
			continue
		}
		if i < len(bounds) && v != bounds[i] {
			t.Errorf("le %q parsed to %v, want bound %v", le, v, bounds[i])
		}
		if i == len(bounds) && !math.IsInf(v, +1) {
			t.Errorf("le %q parsed to %v, want +Inf", le, v)
		}
	}
}

func TestSnapshotWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(2.5)
	var buf strings.Builder
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v", err)
	}
	if snap.Counters["c"] != 1 || snap.Gauges["g"] != 2.5 {
		t.Errorf("snapshot = %+v", snap)
	}
}
