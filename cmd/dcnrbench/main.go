// Command dcnrbench is dcnr's benchmark: one command runs five workloads,
// prints every end-to-end metric as "workload metric value unit", checks
// that the program's outputs are correct, and with -trace 1 adds a traced
// run per workload that breaks its time down by layer.
//
// Run it from the repository root. This directory is a module of its own,
// built against the repository through a replace directive; run.sh builds
// it and passes the flags on:
//
//	bash cmd/dcnrbench/run.sh [-workload W|all] [-seed N] [-seconds S]
//	     [-repeat N] [-trace 0|1] [-trace-dir DIR] [-out FILE]
//
// -seconds is the measured time of one run. It defaults to BENCHMARK.json's
// run_seconds, with which the command in BENCHMARK.json is always called;
// the baseline and the open-loop rates hold at that length only.
//
// Every run of a workload happens in a child process (the command runs
// itself with -child), so each starts with a fresh heap and its peak RSS is
// its own. All load comes from that one process, which uses no more
// concurrent callers, pool workers or HTTP connections than
// runtime.NumCPU(). The inputs are a function of -seed alone. Linux only:
// it reads rusage and paces with nanosleep.
//
// # Workloads
//
//   - campaign: dcnr.Sweep over 4 seeds × scale 1 × dcsweep's standard
//     scenarios (baseline, no-remediation, a 5× burn drill), each run with
//     its backbone leg: 12 cells on NumCPU workers. A batch workload,
//     swept at least twice, for at least 20 cells and until -seconds is
//     spent; one op is one cell, a simulation run. Almost all of its time
//     is simulation — fleet, DES, faults, remediation, service impact, the
//     backbone and the ticket round trip; core analyses are a small share
//     and serve is unused.
//   - figures: set-up simulates a scale-2 intra-DC dataset and a scale-2
//     (240-edge) backbone; then a closed loop with one caller regenerates
//     all 21 paper artifacts (Tables 1–4, Figures 2–18) with the calls
//     cmd/repro makes, fanned out with dcnr.RunLimit(NumCPU), and grades
//     the 19 claims, for -seconds and at least 20 passes, after one untimed
//     pass. One op is one pass. The work is core analyses (most of it the
//     edge analyses behind Table 4, Figures 15–16 and the claims) and
//     sev.Store queries; no simulation.
//   - query-hot: an in-process dcnrd (serve.Daemon) on loopback holding
//     100k synthetic SEVs, asked dcnrload's twelve paper-weighted queries.
//     A closed loop on NumCPU connections measures capacity for a third of
//     -seconds, then an open loop at a fixed 5000 queries/s measures
//     latency for the rest; each phase follows a 1 s warm-up. Twelve keys
//     always fit the result cache: this is the cache-hit path (HTTP,
//     parsing, normalisation, the LRU), with the store bypassed.
//   - query-cold: the same daemon and phases, at 1000 queries/s, but every
//     filter is drawn independently and the grouping over all twelve, for
//     more than 50k distinct keys. serve.Config{CacheEntries: 0} means the
//     default 1024 entries, not "no cache": query-cold misses because its
//     key space dwarfs the cache. This is the miss path: sev.Sharded
//     fan-out and merge, posting-list intersection, encoding.
//   - query-ingest: the query-hot mix at 2000 queries/s plus POST /ingest
//     batches of 500 new SEVs at 3/s, interleaved into the same schedules
//     and connections. Every ingest bumps the dataset generation, so the
//     reads after it miss: writes beside reads, where a faster query that
//     makes ingest dearer shows.
//
// A backbone's size is set by a few of its 24 vendors' link reliability,
// so it varies threefold between seeds, and everything built on it costs
// in proportion. campaign and figures therefore simulate backbones only at
// seeds of typical size, found among a fixed number drawn from -seed (see
// typicalBackboneSeeds): the work is the same at every seed while the data
// differs. Finding them is part of their set-up.
//
// # Metrics
//
// End to end, from untraced runs: setup_s (the median of the set-ups done
// in 4 s, at least five, each from a freshly collected heap, so a second
// of interference from outside the process moves it little; a set-up is
// choosing the grid seeds and building the campaign's fleet model and
// topology, choosing the backbone seed and simulating figures' two
// datasets, or starting a daemon and loading its 100k SEVs),
// throughput_ops_s (cells, passes, or closed-loop queries per second, the
// last a median over windows of the phase), latency_p50_ms
// (per cell, per pass, or per open-loop query timed from when it was
// due), max_rss_mb, and cpu_ms_per_op (user+system CPU of the measured
// phase per op). Failed requests and failed output checks count in the
// "failed" field of the result and make the command exit non-zero.
//
// Per layer, named <module>.<metric> and measured from outside by timing
// calls into each layer's public functions; a workload that never calls a
// layer reports 0 for it, as does a percentile with fewer than ten samples
// beyond it. What each should move:
//
//   - fleet.build_ms, faults.run_ms (des, remediation, service impact and
//     SEV emission), core.intra_build_ms, backbone.build_ms,
//     backbone.simulate_ms, tickets.generate_ms, tickets.roundtrip_ms,
//     core.inter_build_ms, sweep.parallel_efficiency (the traced cells'
//     serial time over the untraced campaign's wall time for as many
//     cells, times its workers), des.ns_per_event → throughput_ops_s and
//     cpu_ms_per_op on campaign; nothing elsewhere.
//   - des.events, remediation.submitted, remediation.escalated,
//     remediation.repair_ratio, tickets.notices: counts, which a change
//     that only makes things faster leaves exactly as they are.
//   - core.<artifact>_us, core.claims_us, core.pool_speedup →
//     latency_p50_ms and throughput_ops_s on figures; nothing on campaign
//     or query-*.
//   - serve.cache_hit_ratio (≥ 0.95 on query-hot, ≤ 0.05 on query-cold),
//     serve.hit_us.* → latency on query-hot; serve.miss_us.*,
//     serve.misses_per_ingest, serve.ingest_ms.* → latency on query-cold
//     and query-ingest.
//   - sev.query_us.*, sev.candidates_per_query, sev.scan_ratio (the same
//     queries run again on Sharded.Query once the load stops, counted by
//     the sev_queries_* series of the daemon's registry) → latency on
//     query-cold, nothing on query-hot; sev.load_us_per_report → setup_s on
//     query-*.
//   - loadgen.latency_p90_ms and loadgen.latency_p99_ms: the latency tail
//     (query-*, and p90 on figures); loadgen.lag_p99_ms,
//     runtime.alloc_kb_per_op and runtime.gc_per_kop check the harness
//     itself and explain cpu_ms_per_op.
//
// The traced run records a span around each of those calls on the
// repository's obs.Tracer, each carrying its op id and its parent span's
// id, keeps them in memory and writes DIR/<workload>.trace.json at the
// end. It prints each layer's self time (span time minus the time its
// child spans cover) and the tracing overhead, traced minus untraced
// throughput_ops_s. campaign's traced run replays its cells through the
// library calls one by one instead of dcnr.Sweep, so its overhead also
// holds the difference between those two pipelines. Layer metrics that
// need no span (runtime, loadgen, serve, sev.load_us_per_report) come from
// the untraced run.
//
// -repeat N runs each workload N times and prints the median and
// quartiles of every metric, flagging those whose spread (interquartile
// distance over median) exceeds the bound in BENCHMARK.json. When one
// workload ran, the last line of output is a JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the reference digests were taken at.
const defaultSeed = 20181031

// runSeconds is the measured time of one run: BENCHMARK.json's
// run_seconds, which every call of the command in BENCHMARK.json passes as
// -seconds. The baseline and the open-loop rates were set at this length;
// runs of another length do not compare with them.
const runSeconds = 6

// config sizes one run of a workload. Tests shrink the sizes; the command
// always uses defaultConfig.
type config struct {
	seed       uint64
	seconds    float64 // measured time of a run
	traced     bool
	senders    int           // callers, pool workers and connections: runtime.NumCPU()
	setups     int           // least set-ups per run; setup_s is their median
	setupFloor time.Duration // least time spent on them

	gridSeeds, gridScale int  // campaign grid
	gridYear             int  // campaign: simulate this year alone; 0 is the whole study period
	gridNoBackbone       bool // campaign: sweep without the backbone leg (the traced replay keeps it)
	minOps               int  // fewest ops a campaign or figures run measures

	figScale     int // figures dataset scale
	serialPasses int // figures: one-artifact-at-a-time passes of a traced run

	reports int           // query dataset size
	warm    time.Duration // query warm-up before each phase
}

func defaultConfig(seed uint64, seconds float64) config {
	return config{
		seed: seed, seconds: seconds, senders: runtime.NumCPU(), setups: 5, setupFloor: 4 * time.Second,
		gridSeeds: 4, gridScale: 1, minOps: 2 * minBeyond,
		figScale: 2, serialPasses: 20,
		reports: 100_000, warm: time.Second,
	}
}

func (c config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// isReference reports whether c sizes the workloads as the reference
// digests were taken: the default seed at the default sizes.
func (c config) isReference() bool {
	d := defaultConfig(defaultSeed, c.seconds)
	d.traced = c.traced
	return c == d
}

// result is what one run of one workload measured.
type result struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Layers    map[string]float64   `json:"layers"`
	Self      map[string]layerTime `json:"self,omitempty"`
	Info      map[string]any       `json:"info,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Layers: map[string]float64{}, Info: map[string]any{}}
}

// check records one output check.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = appendCapped(r.Problems, fmt.Sprintf(format, args...))
	}
}

// appendCapped keeps the first few problems of a run; the count is in
// result.Failed.
func appendCapped(list []string, s string) []string {
	if len(list) >= 8 {
		return list
	}
	return append(list, s)
}

// latencies sets the latency metrics from per-op latencies in
// milliseconds: the median end to end, the tails as layer metrics where
// enough samples lie beyond them.
func (r *result) latencies(ms []float64) error {
	p50, err := percentile(ms, 50)
	if err != nil {
		return fmt.Errorf("latency_p50_ms: %w", err)
	}
	r.Metrics["latency_p50_ms"] = p50
	r.Layers["loadgen.latency_p90_ms"] = percentileOr0(ms, 90)
	r.Layers["loadgen.latency_p99_ms"] = percentileOr0(ms, 99)
	return nil
}

// timeSetups runs setup at least c.setups times and for at least
// c.setupFloor, and returns the median wall time in seconds. A set-up of a
// millisecond then still reports the median of hundreds. Each set-up
// returns how to undo it (or nil); before each one, untimed, the previous
// set-up is undone and the heap collected, so every set-up starts from the
// same heap and the peak RSS is that of one. The last set-up's state is
// the one the run uses.
func (c config) timeSetups(setup func() (undo func(), err error)) (float64, error) {
	var (
		secs []float64
		undo func()
	)
	for start := time.Now(); len(secs) < c.setups || time.Since(start) < c.setupFloor; {
		if undo != nil {
			undo()
		}
		runtime.GC()
		t0 := time.Now()
		u, err := setup()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		undo = u
	}
	return median(secs), nil
}

type workload struct {
	name string
	run  func(cfg config, tr *tracer, r *result) error
}

var workloads = []workload{
	{"campaign", runCampaign},
	{"figures", runFigures},
	{"query-hot", runQuery(queryMix{draw: hotQuery, rate: hotRate})},
	{"query-cold", runQuery(queryMix{draw: coldQuery, rate: coldRate})},
	{"query-ingest", runQuery(queryMix{draw: hotQuery, rate: ingestRate, ingest: true})},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload in this process. A traced run also writes
// its spans to traceDir and reports each layer's self time.
func runWorkload(name string, cfg config, traceDir string) (*result, error) {
	w, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r := newResult()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	if err := w.run(cfg, tr, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.Metrics["max_rss_mb"] = maxRSSMB()
	if tr != nil {
		r.Self = selfTimes(tr.tr.Events())
		path, err := tr.write(traceDir, name)
		if err != nil {
			return nil, err
		}
		r.TraceFile = path
	}
	return r, nil
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: campaign, figures, query-hot, query-cold, query-ingest, or all")
		seed     = flag.Uint64("seed", defaultSeed, "seed every input is generated from")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds of one run of a workload; only the default compares with the baseline")
		repeat   = flag.Int("repeat", 1, "runs per workload; more than one prints medians and quartiles")
		trace    = flag.Int("trace", 0, "1 adds a traced run per workload that reports the per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced runs write <workload>.trace.json to")
		out      = flag.String("out", "", "also write the results as JSON to this file")
		child    = flag.Bool("child", false, "run one workload in this process and print its result as JSON (used by the command itself)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *repeat < 1 || *seconds <= 0 {
		fail(errors.New("-repeat must be at least 1 and -seconds positive"))
	}
	cfg := defaultConfig(*seed, *seconds)
	if *child {
		cfg.traced = *trace == 1
		r, err := runWorkload(*name, cfg, *traceDir)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fail(err)
		}
		return
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := lookup(*name); ok {
		names = []string{*name}
	} else {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnrbench: no bounds to flag spreads against: %v\n", err)
	}
	b := &bench{cfg: cfg, repeat: *repeat, traced: *trace == 1, traceDir: *traceDir, bounds: bounds, w: os.Stdout}
	fmt.Printf("# cpus %d, %s, seed %d, %g s per run\n", runtime.NumCPU(), runtime.Version(), cfg.seed, cfg.seconds)
	ok := b.run(names)
	if *out != "" {
		if err := b.writeJSON(*out); err != nil {
			fail(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dcnrbench:", err)
	os.Exit(2)
}

// bench runs workloads in child processes and reports on them.
type bench struct {
	cfg      config
	repeat   int
	traced   bool
	traceDir string
	bounds   map[string]float64
	w        io.Writer
	reports  []*report
}

// report summarises every run of one workload.
type report struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]*summary  `json:"metrics"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Self      map[string]layerTime `json:"self,omitempty"`
	Overhead  float64              `json:"trace_overhead_ops_s,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
	Info      map[string]any       `json:"info,omitempty"`
}

// summary is one metric over a workload's repeats.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound,omitempty"`
	Wide   bool      `json:"wide,omitempty"`
	Values []float64 `json:"values"`
}

// run runs every named workload and prints its metrics; it reports
// whether every run and every output check succeeded.
func (b *bench) run(names []string) bool {
	allOK := true
	for _, name := range names {
		var (
			runs   []*result
			traced *result
			errs   []error
		)
		for i := 0; i < b.repeat; i++ {
			if r, err := b.spawn(name, false); err != nil {
				errs = append(errs, err)
			} else {
				runs = append(runs, r)
			}
		}
		if b.traced {
			var err error
			if traced, err = b.spawn(name, true); err != nil {
				errs = append(errs, err)
			}
		}
		rep := b.summarize(name, runs, traced, errs)
		b.print(rep)
		allOK = allOK && rep.Correct
	}
	if len(b.reports) == 1 {
		b.printLastLine(b.reports[0])
	}
	return allOK
}

// summarize folds a workload's untraced runs, its traced run (nil when
// there was none) and the runs that failed outright into its report.
// Layer metrics that untraced runs measure come from them (their median),
// the rest from the traced run.
func (b *bench) summarize(name string, runs []*result, traced *result, errs []error) *report {
	rep := &report{Workload: name, Correct: true, Metrics: map[string]*summary{}}
	b.reports = append(b.reports, rep)
	for _, err := range errs {
		rep.Correct = false
		rep.Attempted++
		rep.Failed++
		rep.Problems = append(rep.Problems, err.Error())
	}
	all := runs
	if traced != nil {
		all = append(all[:len(all):len(all)], traced)
	}
	for _, r := range all {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Problems = append(rep.Problems, r.Problems...)
		rep.Correct = rep.Correct && r.Failed == 0
		if rep.Info == nil {
			rep.Info = r.Info
		}
	}
	for _, m := range endToEnd {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[m.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			continue
		}
		q1, q3 := quartiles(vs)
		s := &summary{Unit: m.unit, Median: median(vs), Q1: q1, Q3: q3, Spread: spread(vs), Values: vs}
		if bound, ok := b.bounds[m.name]; ok {
			s.Bound, s.Wide = bound, len(vs) > 1 && s.Spread > bound
		}
		rep.Metrics[m.name] = s
	}
	if traced == nil {
		return rep
	}
	rep.Layers = map[string]float64{}
	for _, m := range perLayer {
		rep.Layers[m.name] = traced.Layers[m.name]
		if !untracedLayer(m.name) || len(runs) == 0 {
			continue
		}
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Layers[m.name])
		}
		rep.Layers[m.name] = median(vs)
	}
	rep.Self = traced.Self
	rep.TraceFile = traced.TraceFile
	if s := rep.Metrics["throughput_ops_s"]; s != nil {
		rep.Overhead = traced.Metrics["throughput_ops_s"] - s.Median
		// The traced cells' serial time over the untraced campaign's wall
		// time for as many cells on its workers.
		cell, _ := traced.Info["serial_cell_s"].(float64)
		if workers, _ := traced.Info["workers"].(float64); workers > 0 {
			rep.Layers["sweep.parallel_efficiency"] = cell * s.Median / workers
		}
	}
	return rep
}

// untracedLayer reports whether an untraced run measures the layer
// metric: those timed by the client or the runtime, which tracing would
// only disturb.
func untracedLayer(name string) bool {
	for _, prefix := range []string{"runtime.", "loadgen.", "serve.", "sev.load_"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// print writes a report as "workload metric value unit" lines: the
// end-to-end metrics (with quartiles and spread when repeated), the error
// ratio, and for a traced run each layer's self time, the layer metrics
// and the tracing overhead.
func (b *bench) print(rep *report) {
	for _, m := range endToEnd {
		s := rep.Metrics[m.name]
		if s == nil {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", rep.Workload, m.name, num(s.Median), m.unit)
		if len(s.Values) > 1 {
			line += fmt.Sprintf(" q1=%s q3=%s spread=%.1f%%", num(s.Q1), num(s.Q3), 100*s.Spread)
			if s.Bound > 0 {
				line += fmt.Sprintf(" bound=%.0f%%", 100*s.Bound)
			}
			if s.Wide {
				line += " WIDE"
			}
		}
		fmt.Fprintln(b.w, line)
	}
	ratio := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(b.w, "%s error_ratio %s ratio (%d of %d failed)\n", rep.Workload, num(ratio), rep.Failed, rep.Attempted)
	if rep.Layers != nil {
		layers := make([]string, 0, len(rep.Self))
		for l := range rep.Self {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return rep.Self[layers[i]].SelfMS > rep.Self[layers[j]].SelfMS })
		for _, l := range layers {
			fmt.Fprintf(b.w, "%s self %s %.3f ms %d spans\n", rep.Workload, l, rep.Self[l].SelfMS, rep.Self[l].Spans)
		}
		for _, m := range perLayer {
			fmt.Fprintf(b.w, "%s %s %s %s\n", rep.Workload, m.name, num(rep.Layers[m.name]), m.unit)
		}
		fmt.Fprintf(b.w, "%s trace_overhead_ops_s %s 1/s (traced minus untraced throughput)\n", rep.Workload, num(rep.Overhead))
		fmt.Fprintf(b.w, "%s trace_file %s\n", rep.Workload, rep.TraceFile)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(b.w, "%s FAILED %s\n", rep.Workload, p)
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printLastLine prints the one-line JSON result: end-to-end metrics, or
// in a traced invocation the per-layer metrics.
func (b *bench) printLastLine(rep *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if b.traced {
		for _, m := range perLayer {
			metrics[m.name] = value{rep.Layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			if s := rep.Metrics[m.name]; s != nil {
				metrics[m.name] = value{s.Median, m.unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, metrics})
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(b.w, string(line))
}

// spawn runs one workload in a child process and returns its result.
func (b *bench) spawn(name string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(b.cfg.seed, 10),
		"-seconds", strconv.FormatFloat(b.cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-trace-dir", b.traceDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The child dies with this process, so an interrupted benchmark leaves
	// nothing running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run: %w", name, err)
	}
	var r result
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s run: reading its result: %w", name, err)
	}
	return &r, nil
}

// writeJSON saves every report, with the machine and the fixed inputs they
// were measured with.
func (b *bench) writeJSON(path string) error {
	doc := map[string]any{
		"cpus":    runtime.NumCPU(),
		"go":      runtime.Version(),
		"seed":    b.cfg.seed,
		"seconds": b.cfg.seconds,
		"repeat":  b.repeat,
		"open_loop_rates": map[string]float64{
			"query-hot": hotRate, "query-cold": coldRate, "query-ingest": ingestRate,
		},
		"reference_digests": map[string]string{
			"campaign": campaignDigest, "figures": figuresDigest,
		},
		"workloads": b.reports,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBounds reads each end-to-end metric's regression bound from the
// BENCHMARK.json of the repository this runs in (the working directory or
// one of its parents).
func readBounds() (map[string]float64, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec struct {
				EndToEnd []struct {
					Name  string  `json:"name"`
					Bound float64 `json:"bound"`
				} `json:"end_to_end"`
			}
			if err := json.Unmarshal(data, &spec); err != nil {
				return nil, err
			}
			bounds := map[string]float64{}
			for _, m := range spec.EndToEnd {
				bounds[m.Name] = m.Bound
			}
			return bounds, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found")
		}
		dir = parent
	}
}
