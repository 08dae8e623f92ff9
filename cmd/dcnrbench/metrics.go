package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dcnr/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of dcnr sees, reported by every untraced
// run of every workload (BENCHMARK.json's end_to_end list, in order).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"max_rss_mb", "MiB"},
	{"cpu_ms_per_op", "ms"},
}

// artifacts are the paper artifacts the figures workload regenerates, in
// paper order; each has a core.<id>_us layer metric.
var artifacts = []string{
	"table1", "table2", "table3", "table4",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
}

// perLayer are the layer metrics a traced run reports (BENCHMARK.json's
// per_layer list, in order). A workload that never calls into a layer
// reports 0 for that layer's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fleet.build_ms", "ms"},
		{"faults.run_ms", "ms"},
		{"core.intra_build_ms", "ms"},
		{"des.events", "count"},
		{"des.ns_per_event", "ns"},
		{"remediation.submitted", "count"},
		{"remediation.escalated", "count"},
		{"remediation.repair_ratio", "ratio"},
		{"backbone.build_ms", "ms"},
		{"backbone.simulate_ms", "ms"},
		{"tickets.generate_ms", "ms"},
		{"tickets.roundtrip_ms", "ms"},
		{"tickets.notices", "count"},
		{"core.inter_build_ms", "ms"},
		{"sweep.parallel_efficiency", "ratio"},
	}
	for _, id := range artifacts {
		defs = append(defs, metricDef{"core." + id + "_us", "us"})
	}
	return append(defs,
		metricDef{"core.claims_us", "us"},
		metricDef{"core.pool_speedup", "ratio"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.hit_us.p50", "us"},
		metricDef{"serve.hit_us.p99", "us"},
		metricDef{"serve.miss_us.p50", "us"},
		metricDef{"serve.miss_us.p99", "us"},
		metricDef{"serve.misses_per_ingest", "count"},
		metricDef{"serve.ingest_ms.p50", "ms"},
		metricDef{"serve.ingest_ms.p90", "ms"},
		metricDef{"sev.query_us.p50", "us"},
		metricDef{"sev.query_us.p99", "us"},
		metricDef{"sev.candidates_per_query", "count"},
		metricDef{"sev.scan_ratio", "ratio"},
		metricDef{"sev.load_us_per_report", "us"},
		metricDef{"loadgen.latency_p90_ms", "ms"},
		metricDef{"loadgen.latency_p99_ms", "ms"},
		metricDef{"loadgen.lag_p99_ms", "ms"},
		metricDef{"runtime.alloc_kb_per_op", "KiB"},
		metricDef{"runtime.gc_per_kop", "count"},
	)
}()

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is decided by a handful of samples and
// does not repeat from run to run.
const minBeyond = 10

// percentile returns the p-th percentile of xs (linear interpolation
// between closest ranks), refusing when fewer than minBeyond samples lie
// beyond it — p50 needs 20 samples, p90 100, p99 1000.
func percentile(xs []float64, p float64) (float64, error) {
	if beyond := float64(len(xs)) * (100 - p) / 100; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", p, len(xs), beyond, minBeyond)
	}
	ps, err := stats.Percentiles(xs, p)
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

// percentileOr0 is percentile for layer metrics, where a layer that saw
// too few samples reports 0 like a layer the workload never called.
func percentileOr0(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so spreads
// printed here match those computed from the JSON output. With fewer than
// two values both quartiles are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// phase samples CPU time and runtime counters at the start of a measured
// phase, so its end can report per-op costs of exactly that phase.
type phase struct {
	cpu    time.Duration
	allocs uint64
	gcs    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() (allocBytes, gcCycles uint64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func beginPhase() phase {
	a, g := readRuntime()
	return phase{cpu: cpuTime(), allocs: a, gcs: g}
}

// end records the phase's per-op costs into r: cpu_ms_per_op,
// runtime.alloc_kb_per_op and runtime.gc_per_kop.
func (p phase) end(r *result, ops int) {
	a, g := readRuntime()
	cpu := cpuTime() - p.cpu
	n := float64(max(ops, 1))
	r.Metrics["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / n
	r.Layers["runtime.alloc_kb_per_op"] = float64(a-p.allocs) / 1024 / n
	r.Layers["runtime.gc_per_kop"] = float64(g-p.gcs) * 1000 / n
}

// durMS and durUS convert a duration to float milliseconds/microseconds.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
