// Command repro regenerates every table and figure of the paper's
// evaluation from a simulated dataset.
//
// Usage:
//
//	repro [-experiment id] [-seed N] [-scale N] [-format text|csv]
//	      [-parallel N] [-metrics-addr ADDR] [-trace FILE] [-list]
//	repro -verify [-seed N]
//	repro -sweep-report FILE
//
// Without -experiment, all experiments run across a bounded worker pool
// (-parallel, default one worker per CPU) and print in paper order:
// table1–table4, fig2–fig18, the ablations (remediation, redundancy,
// drain, config), and the operational studies (congestion, drill-suite,
// wan-reroute, optical-attribution), followed by a per-analysis wall-time
// footer. -verify grades the paper's headline claims and exits non-zero if
// any fails. -sweep-report diffs a dcsweep campaign report against the
// paper's Table 1 repair ratios and Table 2 root-cause mix, reporting for
// each whether the paper's point estimate falls inside the sweep's
// cross-run p5–p95 band.
//
// -metrics-addr serves runtime introspection over HTTP for the duration of
// the run: /metrics (the simulation's metrics in Prometheus text format),
// /healthz (200 while no SLO alert rule is firing, 503 otherwise), /slo
// (the streaming health engine's full JSON report), /journal (the causal
// incident journal's summary — lifecycle counts and per-device-type MTTR
// phase decomposition, live as the intra-DC dataset builds), and
// /debug/pprof/ (the standard profiling endpoints).
// -trace records a Chrome trace-event file
// covering the simulation's hot paths and every analysis task, loadable in
// chrome://tracing or Perfetto.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"dcnr"
	"dcnr/internal/report"
	"dcnr/internal/serve"
	"dcnr/internal/service"
	"dcnr/internal/topology"
)

func main() {
	var (
		experiment  = flag.String("experiment", "", "experiment id to run (default: all)")
		seed        = flag.Uint64("seed", 20181031, "simulation seed")
		scale       = flag.Int("scale", 1, "fleet population scale")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		verify      = flag.Bool("verify", false, "grade the paper's headline claims and exit non-zero on failures")
		format      = flag.String("format", "text", "output format: text or csv")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "worker pool size for the all-experiments run (1 = serial)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics, health, journal, and pprof on this address (e.g. :8080) for the duration of the run")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event file to this file")
		sweepReport = flag.String("sweep-report", "", "diff a dcsweep report's variance bands against the paper's values and exit")
	)
	flag.Parse()
	switch *format {
	case "text":
	case "csv":
		csvOutput = true
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown -format %q\n", *format)
		os.Exit(1)
	}

	if *list {
		for _, id := range experimentOrder {
			fmt.Printf("%-22s %s\n", id, experiments[id].title)
		}
		return
	}
	if *sweepReport != "" {
		if err := runSweepDiff(os.Stdout, *sweepReport); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		return
	}

	d := &datasets{seed: *seed, scale: *scale}
	if *metricsAddr != "" {
		d.metrics = dcnr.NewMetricsRegistry()
		eng, err := dcnr.NewHealthEngine(dcnr.HealthTargetsForScale(*scale), nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		d.health = eng
		d.journal = dcnr.NewJournal()
		shutdown, addr, err := startMetricsServer(*metricsAddr, d.metrics, d.health, d.journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "repro: introspection on http://%s (/metrics, /healthz, /slo, /journal, /debug/pprof/)\n", addr)
	}
	if *traceOut != "" {
		d.trace = dcnr.NewTracer()
	}

	if *verify {
		ok, err := runVerify(os.Stdout, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(2)
		}
		return
	}
	if err := run(os.Stdout, *experiment, d, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, d.trace); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: trace: %d events → %s\n", d.trace.Len(), *traceOut)
	}
}

// startMetricsServer serves runtime introspection on addr until the
// returned shutdown function is called: the full internal/serve
// introspection suite — /metrics (reg in Prometheus text exposition),
// /healthz and /slo (the SLO engine's liveness verdict and full JSON
// report; eng may be nil, which reads as permanently healthy), /journal
// (the causal journal's summary; jnl may be nil, which reads as an empty
// journal), and /debug/pprof/. The shutdown function stops the server
// AND joins the serving goroutine — callers must invoke it so no
// goroutine outlives the run. The bound address is returned so callers
// can pass ":0" and discover the port.
func startMetricsServer(addr string, reg *dcnr.MetricsRegistry, eng *dcnr.HealthEngine, jnl *dcnr.Journal) (func(), string, error) {
	srv := serve.New(serve.Options{
		Addr:          addr,
		Name:          "repro: metrics",
		Metrics:       reg,
		Health:        eng,
		Journal:       jnl,
		Introspection: true,
	})
	bound, err := srv.Start()
	if err != nil {
		return nil, "", err
	}
	return srv.Shutdown, bound, nil
}

// writeTraceFile writes the trace to path, losing neither the write error
// nor the close error (a failed close is a truncated trace).
func writeTraceFile(path string, tr *dcnr.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(tr.WriteJSON(f), f.Close())
}

// runVerify prints the claims scoreboard and reports whether every claim
// held.
func runVerify(w io.Writer, d *datasets) (bool, error) {
	intra, err := d.intraDC()
	if err != nil {
		return false, err
	}
	inter, err := d.inter()
	if err != nil {
		return false, err
	}
	results := intra.Analysis.VerifyIntraClaims()
	results = append(results, inter.Analysis.VerifyInterClaims()...)
	t := &report.Table{
		Title:   fmt.Sprintf("Reproduction scoreboard (seed %d)", d.seed),
		Headers: []string{"Verdict", "Claim", "Measured"},
	}
	allPass := true
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			allPass = false
		}
		t.AddRow(verdict, r.Claim, r.Detail)
	}
	if err := t.Render(w); err != nil {
		return false, err
	}
	if _, err := fmt.Fprintf(w, "%d/%d claims reproduced\n", countPass(results), len(results)); err != nil {
		return false, err
	}
	return allPass, nil
}

func countPass(results []dcnr.ClaimResult) int {
	n := 0
	for _, r := range results {
		if r.Pass {
			n++
		}
	}
	return n
}

// datasets carries the lazily-built simulation outputs shared by the
// experiments. Builds are guarded by sync.Once so experiments running
// concurrently on the worker pool share one dataset per kind.
type datasets struct {
	seed  uint64
	scale int

	// metrics and trace, when non-nil, instrument the shared dataset
	// builds (and, for trace, the analysis fan-out in runAll). health
	// streams SLO state out of the intra-DC build for /healthz and /slo.
	metrics *dcnr.MetricsRegistry
	trace   *dcnr.Tracer
	health  *dcnr.HealthEngine
	journal *dcnr.Journal

	intraOnce sync.Once
	intra     *dcnr.IntraResult
	intraErr  error

	backboneOnce sync.Once
	backbone     *dcnr.BackboneResult
	backboneErr  error
}

func (d *datasets) intraDC() (*dcnr.IntraResult, error) {
	d.intraOnce.Do(func() {
		d.intra, d.intraErr = dcnr.SimulateIntraDC(dcnr.IntraConfig{
			Observe: dcnr.Observe{
				Metrics: d.metrics, Trace: d.trace,
				Health: d.health, Journal: d.journal,
			},
			Seed: d.seed, Scale: d.scale,
		})
	})
	return d.intra, d.intraErr
}

func (d *datasets) inter() (*dcnr.BackboneResult, error) {
	d.backboneOnce.Do(func() {
		cfg := dcnr.DefaultBackboneConfig()
		cfg.Seed = d.seed
		cfg.Metrics = d.metrics
		cfg.Trace = d.trace
		d.backbone, d.backboneErr = dcnr.SimulateBackbone(cfg)
	})
	return d.backbone, d.backboneErr
}

type experimentFunc func(d *datasets, w io.Writer) error

type experimentDef struct {
	title string
	run   experimentFunc
}

var experimentOrder = []string{
	"table1", "table2", "table3", "table4",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18",
	"ablation-remediation", "ablation-redundancy",
	"congestion", "ablation-drain", "ablation-config", "drill-suite",
	"wan-reroute", "optical-attribution",
}

// experiments is populated by init (experiment functions read their own
// titles from the map, so a composite literal would be an init cycle).
var experiments map[string]experimentDef

func init() {
	experiments = map[string]experimentDef{
		"table1":               {"Table 1: automated repair ratios, priorities, waits, repair times", table1},
		"table2":               {"Table 2: root causes of intra-DC network incidents", table2},
		"table3":               {"Table 3: SEV levels with representative incidents", table3},
		"table4":               {"Table 4: edge distribution and reliability by continent", table4},
		"fig2":                 {"Figure 2: root cause distribution by device type", fig2},
		"fig3":                 {"Figure 3: incident rate per device type per year", fig3},
		"fig4":                 {"Figure 4: SEV level mix by device type (2017)", fig4},
		"fig5":                 {"Figure 5: SEVs per device over time by level", fig5},
		"fig6":                 {"Figure 6: normalized switches vs employees", fig6},
		"fig7":                 {"Figure 7: fraction of incidents per year by device type", fig7},
		"fig8":                 {"Figure 8: incidents per year normalized to total 2017 SEVs", fig8},
		"fig9":                 {"Figure 9: incidents by network design (normalized)", fig9},
		"fig10":                {"Figure 10: incidents per device by network design", fig10},
		"fig11":                {"Figure 11: population breakdown by device type", fig11},
		"fig12":                {"Figure 12: mean time between incidents (device-hours)", fig12},
		"fig13":                {"Figure 13: p75 incident resolution time (hours)", fig13},
		"fig14":                {"Figure 14: p75 resolution time vs fleet size", fig14},
		"fig15":                {"Figure 15: edge MTBF percentile curve and model", fig15},
		"fig16":                {"Figure 16: edge MTTR percentile curve and model", fig16},
		"fig17":                {"Figure 17: vendor MTBF percentile curve", fig17},
		"fig18":                {"Figure 18: vendor MTTR percentile curve and model", fig18},
		"ablation-remediation": {"Ablation: automated remediation on vs off (§5.6)", ablationRemediation},
		"ablation-redundancy":  {"Ablation: redundancy scope vs service impact (§5.2, §5.4)", ablationRedundancy},
		"congestion":           {"Congestion after failures (§3.1's slow-repair argument)", congestionStudy},
		"ablation-drain":       {"Ablation: drain-before-maintenance policy (§5.2)", ablationDrain},
		"ablation-config":      {"Ablation: config change review + canary (§5.1)", ablationConfig},
		"drill-suite":          {"Fault injection and disaster recovery drills (§5.7)", drillSuite},
		"wan-reroute":          {"WAN capacity loss and rerouting across optical planes (§3.2)", wanReroute},
		"optical-attribution":  {"Optical-layer failure attribution: segments and shared risk (§3.2)", opticalAttribution},
	}
}

func run(w io.Writer, id string, d *datasets, workers int) error {
	if id != "" {
		def, ok := experiments[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		return def.run(d, w)
	}
	return runAll(w, d, workers)
}

// Trace categories of the spans runAll records; the wall-time footer is
// rebuilt from them.
const (
	datasetCat  = "dataset"
	analysisCat = "analysis"
)

// buildNames labels the shared dataset builds in traces and the footer.
var buildNames = []string{"dataset: intra-DC", "dataset: backbone"}

// runAll regenerates every experiment across a bounded worker pool. The
// two shared datasets are built first as their own (possibly concurrent)
// timed tasks, so no experiment's measured time includes blocking on
// another worker's sync.Once build. Each experiment renders into its own
// buffer so output stays in paper order no matter which worker finished
// first.
//
// Timing is the trace recorder's job: every build and experiment runs
// under a per-task span (one trace lane per pool worker), and the footer
// table re-derives per-analysis wall time from the recorded spans. When
// -trace is set the same spans land in the exported file, so the footer
// and the trace viewer can never disagree.
func runAll(w io.Writer, d *datasets, workers int) error {
	tr := d.trace
	if tr == nil {
		// No export requested: a private tracer still carries the
		// footer's timings.
		tr = dcnr.NewTracer()
	}
	// The pool never exceeds GOMAXPROCS or the task count; clamp the
	// same way so the footer reports the pool that ran.
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	workers = min(workers, len(experimentOrder))
	begin := time.Now()
	builds := []func() error{
		func() error { _, err := d.intraDC(); return err },
		func() error { _, err := d.inter(); return err },
	}
	if err := dcnr.RunLimitTraced(workers, len(builds), tr, datasetCat,
		func(i int) string { return buildNames[i] },
		func(i int) error { return builds[i]() }); err != nil {
		return err
	}
	bufs := make([]bytes.Buffer, len(experimentOrder))
	err := dcnr.RunLimitTraced(workers, len(experimentOrder), tr, analysisCat,
		func(i int) string { return experimentOrder[i] },
		func(i int) error {
			id := experimentOrder[i]
			if err := experiments[id].run(d, &bufs[i]); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			return nil
		})
	if err != nil {
		return err
	}
	elapsed := time.Since(begin)
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return emitTimings(w, tr, elapsed, workers)
}

// emitTimings renders the per-analysis wall-time footer from the spans
// runAll recorded on tr (categories "dataset" and "analysis"; other
// categories — DES events, remediation intervals — are someone else's).
func emitTimings(w io.Writer, tr *dcnr.Tracer, elapsed time.Duration, workers int) error {
	durs := make(map[string]time.Duration)
	for _, e := range tr.Events() {
		if e.Phase == "X" && (e.Cat == datasetCat || e.Cat == analysisCat) {
			durs[e.Name] += time.Duration(e.Dur * float64(time.Microsecond))
		}
	}
	t := &report.Table{
		Title:   "Per-analysis wall time",
		Note:    "regeneration cost of each artifact, from trace spans; serial sum vs wall clock shows the fan-out speedup",
		Headers: []string{"Experiment", "Time"},
	}
	serial := time.Duration(0)
	for _, name := range buildNames {
		serial += durs[name]
		t.AddRow(name, durs[name].Round(time.Microsecond).String())
	}
	for _, id := range experimentOrder {
		serial += durs[id]
		t.AddRow(id, durs[id].Round(time.Microsecond).String())
	}
	t.AddRow("serial sum", serial.Round(time.Microsecond).String())
	t.AddRow(fmt.Sprintf("wall clock (%d workers)", workers), elapsed.Round(time.Microsecond).String())
	if elapsed > 0 {
		t.AddRow("speedup", fmt.Sprintf("%.2fx", float64(serial)/float64(elapsed)))
	}
	return emit(t, w)
}

func table1(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["table1"].title,
		Note:    "paper: Core 75% / p0 / 4m / 30.1s — FSW 99.5% / 2.25 / 3d / 4.45s — RSW 99.7% / 2.22 / 1d / 2.91s",
		Headers: []string{"Device", "Repair Ratio", "Avg Priority", "Avg Wait (h)", "Avg Repair (s)"},
	}
	for _, dt := range []dcnr.DeviceType{dcnr.Core, dcnr.FSW, dcnr.RSW} {
		s := res.RemediationStats[dt]
		t.AddRow(dt.String(), report.Pct(s.RepairRatio()), report.F(s.AvgPriority()),
			report.F(s.AvgWaitHours()), report.F(s.AvgRepairSeconds()))
	}
	return emit(t, w)
}

func table2(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	dist := res.Analysis.RootCauseDistribution()
	t := &report.Table{
		Title:   experiments["table2"].title,
		Note:    "paper: maintenance 17%, hardware 13%, configuration 13%, bug 12%, accidents 10%, capacity 5%, undetermined 29%",
		Headers: []string{"Category", "Distribution"},
	}
	for _, c := range dcnr.RootCauses {
		t.AddRow(c.String(), report.Pct(dist[c]))
	}
	return emit(t, w)
}

func table3(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["table3"].title,
		Headers: []string{"Level", "Count (2017)", "Representative incident"},
	}
	for _, s := range dcnr.Severities {
		reports := res.Store.Query().Year(2017).Severity(s).Reports()
		example := "(none this year)"
		if len(reports) > 0 {
			example = reports[0].Title + " — " + reports[0].Impact
		}
		t.AddRow(s.String(), fmt.Sprint(len(reports)), example)
	}
	return emit(t, w)
}

func table4(d *datasets, w io.Writer) error {
	res, err := d.inter()
	if err != nil {
		return err
	}
	rows := res.Analysis.ByContinent()
	t := &report.Table{
		Title:   experiments["table4"].title,
		Note:    "paper: NA 37%/1848h/17h, EU 33%/2029h/19h, Asia 14%/2352h/11h, SA 10%/1579h/9h, Africa 4%/5400h/22h, AU 2%/1642h/2h",
		Headers: []string{"Continent", "Distribution", "MTBF (h)", "MTTR (h)"},
	}
	for _, c := range dcnr.Continents {
		r := rows[c]
		t.AddRow(c.String(), report.Pct(r.Share), report.F(r.MTBF), report.F(r.MTTR))
	}
	return emit(t, w)
}

func fig2(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	byCause := res.Analysis.RootCauseByDevice()
	t := &report.Table{
		Title:   experiments["fig2"].title,
		Headers: append([]string{"Root cause"}, typeHeaders()...),
	}
	for _, c := range dcnr.RootCauses {
		row := []string{c.String()}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.Pct(byCause[c][dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig3(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["fig3"].title,
		Note:    "incidents per active device; log-scale in the paper",
		Headers: append([]string{"Year"}, typeHeaders()...),
	}
	for y := dcnr.FirstYear; y <= dcnr.LastYear; y++ {
		rates := res.Analysis.IncidentRate(y)
		row := []string{fmt.Sprint(y)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.F(rates[dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig4(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	br := res.Analysis.SeverityBreakdown(2017)
	t := &report.Table{
		Title:   experiments["fig4"].title,
		Note:    "paper N values: SEV3 82%, SEV2 13%, SEV1 5%",
		Headers: append([]string{"Level", "N"}, typeHeaders()...),
	}
	for _, s := range dcnr.Severities {
		row := []string{s.String(), report.Pct(br[s].Share)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.Pct(br[s].ByDevice[dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig5(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	rates := res.Analysis.SevRatePerDevice()
	t := &report.Table{
		Title:   experiments["fig5"].title,
		Note:    "SEVs per deployed network device; inflection at fabric deployment (2015)",
		Headers: []string{"Year", "SEV3", "SEV2", "SEV1"},
	}
	for _, y := range report.SortedInts(rates) {
		t.AddRow(fmt.Sprint(y), report.F(rates[y][dcnr.Sev3]), report.F(rates[y][dcnr.Sev2]), report.F(rates[y][dcnr.Sev1]))
	}
	return emit(t, w)
}

func fig6(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	pts := res.Analysis.SwitchesVsEmployees()
	t := &report.Table{
		Title:   experiments["fig6"].title,
		Headers: []string{"Employees", "Normalized switches"},
	}
	for _, p := range pts {
		t.AddRow(report.F(p.X), report.F(p.Y))
	}
	return emit(t, w)
}

func fig7(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	fr := res.Analysis.IncidentFractions()
	t := &report.Table{
		Title:   experiments["fig7"].title,
		Headers: append([]string{"Year"}, typeHeaders()...),
	}
	for _, y := range report.SortedInts(fr) {
		row := []string{fmt.Sprint(y)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.Pct(fr[y][dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig8(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	norm := res.Analysis.NormalizedIncidents(2017)
	t := &report.Table{
		Title:   experiments["fig8"].title,
		Note:    "paper 2017: Core ≈ 34%, RSW ≈ 28% of SEVs; 9.4x total growth from 2011",
		Headers: append([]string{"Year"}, typeHeaders()...),
	}
	for _, y := range report.SortedInts(norm) {
		row := []string{fmt.Sprint(y)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.F(norm[y][dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig9(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	di := res.Analysis.DesignIncidents(2017)
	t := &report.Table{
		Title:   experiments["fig9"].title,
		Note:    "paper: 2017 fabric incidents ≈ 50% of cluster incidents",
		Headers: []string{"Year", "Cluster", "Fabric"},
	}
	for _, y := range report.SortedInts(di) {
		t.AddRow(fmt.Sprint(y), report.F(di[y][dcnr.DesignCluster]), report.F(di[y][dcnr.DesignFabric]))
	}
	return emit(t, w)
}

func fig10(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	dr := res.Analysis.DesignRate()
	t := &report.Table{
		Title:   experiments["fig10"].title,
		Note:    "incidents per device; fabric consistently below cluster after 2015",
		Headers: []string{"Year", "Cluster", "Fabric"},
	}
	for _, y := range report.SortedInts(dr) {
		t.AddRow(fmt.Sprint(y), report.F(dr[y][dcnr.DesignCluster]), report.F(dr[y][dcnr.DesignFabric]))
	}
	return emit(t, w)
}

func fig11(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	pb := res.Analysis.PopulationBreakdown()
	t := &report.Table{
		Title:   experiments["fig11"].title,
		Headers: append([]string{"Year"}, typeHeaders()...),
	}
	for _, y := range report.SortedInts(pb) {
		row := []string{fmt.Sprint(y)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.F(pb[y][dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig12(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["fig12"].title,
		Note:    "paper 2017: Core ≈ 39 495, RSW ≈ 9 958 828 device-hours; fabric ≈ 3.2x cluster",
		Headers: append([]string{"Year"}, typeHeaders()...),
	}
	for y := dcnr.FirstYear; y <= dcnr.LastYear; y++ {
		mtbi := res.Analysis.MTBI(y)
		row := []string{fmt.Sprint(y)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.F(mtbi[dt]))
		}
		t.AddRow(row...)
	}
	fab := res.Analysis.DesignMTBI(2017, dcnr.DesignFabric)
	clu := res.Analysis.DesignMTBI(2017, dcnr.DesignCluster)
	t.AddRow("2017 design MTBI", fmt.Sprintf("fabric %s", report.F(fab)),
		fmt.Sprintf("cluster %s", report.F(clu)), fmt.Sprintf("ratio %.2fx", fab/clu))
	return emit(t, w)
}

func fig13(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["fig13"].title,
		Headers: append([]string{"Year"}, typeHeaders()...),
	}
	for y := dcnr.FirstYear; y <= dcnr.LastYear; y++ {
		irt := res.Analysis.P75IRT(y)
		row := []string{fmt.Sprint(y)}
		for _, dt := range dcnr.IntraDCTypes {
			row = append(row, report.F(irt[dt]))
		}
		t.AddRow(row...)
	}
	return emit(t, w)
}

func fig14(d *datasets, w io.Writer) error {
	res, err := d.intraDC()
	if err != nil {
		return err
	}
	pts := res.Analysis.IRTvsScale()
	t := &report.Table{
		Title:   experiments["fig14"].title,
		Note:    "positive correlation: larger networks take longer to resolve incidents",
		Headers: []string{"p75 IRT (h)", "Normalized switches"},
	}
	for _, p := range pts {
		t.AddRow(report.F(p.X), report.F(p.Y))
	}
	return emit(t, w)
}

// curveTable renders a percentile curve plus its fitted exponential model.
func curveTable(w io.Writer, title, note string, metric map[string]float64, fitNote bool) error {
	t := &report.Table{
		Title:   title,
		Note:    note,
		Headers: []string{"Percentile", "Value (h)"},
	}
	curve := dcnr.Curve(metric)
	// Print ~20 evenly spaced curve points.
	step := len(curve) / 20
	if step < 1 {
		step = 1
	}
	lastPrinted := -1
	for i := 0; i < len(curve); i += step {
		t.AddRow(report.Pct(curve[i].X), report.F(curve[i].Y))
		lastPrinted = i
	}
	if n := len(curve); n > 0 && lastPrinted != n-1 {
		t.AddRow(report.Pct(curve[n-1].X), report.F(curve[n-1].Y))
	}
	if fitNote {
		if fit, err := dcnr.FitCurve(metric); err == nil {
			t.AddRow("model", fmt.Sprintf("%.2f * e^(%.4f p), R2 = %.3f", fit.A, fit.B, fit.R2))
		}
	}
	return emit(t, w)
}

func fig15(d *datasets, w io.Writer) error {
	res, err := d.inter()
	if err != nil {
		return err
	}
	return curveTable(w, experiments["fig15"].title,
		"paper model: 462.88*e^(2.3408p), R2 = 0.94", res.Analysis.EdgeMTBF(), true)
}

func fig16(d *datasets, w io.Writer) error {
	res, err := d.inter()
	if err != nil {
		return err
	}
	return curveTable(w, experiments["fig16"].title,
		"paper model: 1.513*e^(4.256p), R2 = 0.87", res.Analysis.EdgeMTTR(), true)
}

func fig17(d *datasets, w io.Writer) error {
	res, err := d.inter()
	if err != nil {
		return err
	}
	return curveTable(w, experiments["fig17"].title,
		"paper: vendor MTBF spans orders of magnitude; p50 ≈ 2326 h", res.Analysis.VendorMTBF(), false)
}

func fig18(d *datasets, w io.Writer) error {
	res, err := d.inter()
	if err != nil {
		return err
	}
	return curveTable(w, experiments["fig18"].title,
		"paper model: 1.1345*e^(4.7709p), R2 = 0.98", res.Analysis.VendorMTTR(), true)
}

func ablationRemediation(d *datasets, w io.Writer) error {
	on, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{Seed: d.seed, Scale: d.scale, FromYear: 2017, ToYear: 2017})
	if err != nil {
		return err
	}
	off, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{Seed: d.seed, Scale: d.scale, FromYear: 2017, ToYear: 2017, DisableRemediation: true})
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["ablation-remediation"].title,
		Note:    "2017 fleet; incidents with the automated repair engine enabled vs disabled",
		Headers: []string{"Device", "Incidents (on)", "Incidents (off)", "Increase"},
	}
	for _, dt := range []dcnr.DeviceType{dcnr.RSW, dcnr.FSW, dcnr.Core, dcnr.CSW} {
		a := on.Store.Query().DeviceType(dt).Count()
		b := off.Store.Query().DeviceType(dt).Count()
		incr := "-"
		if a > 0 {
			incr = fmt.Sprintf("%.0fx", float64(b)/float64(a))
		}
		t.AddRow(dt.String(), fmt.Sprint(a), fmt.Sprint(b), incr)
	}
	t.AddRow("total", fmt.Sprint(on.Incidents), fmt.Sprint(off.Incidents),
		fmt.Sprintf("%.0fx", float64(off.Incidents)/float64(on.Incidents)))
	return emit(t, w)
}

func ablationRedundancy(d *datasets, w io.Writer) error {
	net, err := fleetTopology()
	if err != nil {
		return err
	}
	assessor := service.NewAssessor(net)
	t := &report.Table{
		Title:   experiments["ablation-redundancy"].title,
		Note:    "severity of one failure per device type and scope, computed from the topology",
		Headers: []string{"Device type", "Scope", "Stranded racks", "Capacity loss", "Severity"},
	}
	for _, dt := range dcnr.IntraDCTypes {
		devices := net.DevicesOfType(dt)
		if len(devices) == 0 {
			continue
		}
		for _, scope := range []service.Scope{service.ScopeDevice, service.ScopeGroup, service.ScopeUnit} {
			as, err := assessor.Assess(devices[0].Name, scope)
			if err != nil {
				return err
			}
			t.AddRow(dt.String(), scope.String(), fmt.Sprint(as.StrandedRacks),
				report.Pct(as.CapacityLoss), as.Severity.String())
		}
	}
	return emit(t, w)
}

func fleetTopology() (*topology.Network, error) {
	n := topology.NewNetwork()
	c1, err := topology.BuildCluster(n, topology.ClusterSpec{DC: "dc1", Region: "ra", Clusters: 4, RacksPerCluster: 16})
	if err != nil {
		return nil, err
	}
	c2, err := topology.BuildFabric(n, topology.FabricSpec{DC: "dc2", Region: "rb", Pods: 4, RacksPerPod: 16})
	if err != nil {
		return nil, err
	}
	if err := topology.InterconnectCores(n, c1, c2); err != nil {
		return nil, err
	}
	return n, nil
}

func typeHeaders() []string {
	hs := make([]string, 0, len(dcnr.IntraDCTypes))
	for _, dt := range dcnr.IntraDCTypes {
		hs = append(hs, dt.String())
	}
	return hs
}

// csvOutput switches experiment rendering to CSV (set by -format csv).
var csvOutput bool

// emit renders a table in the selected output format.
func emit(t *report.Table, w io.Writer) error {
	if csvOutput {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}
