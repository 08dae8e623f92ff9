// Command dcsweep runs a scenario-sweep campaign: a grid of simulation
// runs — seed × scale × scenario — across a bounded worker pool, with
// per-run statistics streamed as JSONL and the paper's key statistics
// aggregated into cross-run mean/p5/p95 bands.
//
// Usage:
//
//	dcsweep [-seeds CSV | -seed-base N -runs N] [-scales CSV]
//	        [-scenarios SPEC] [-workers N] [-backbone]
//	        [-out FILE] [-runs-out FILE] [-journal FILE] [-metrics-out FILE]
//	        [-timeline FILE]
//	        [-trace FILE] [-status-addr ADDR]
//	        [-log-level LEVEL] [-log-format text|json]
//
// The grid is the cross product of seeds, scales, and scenarios. Seeds
// come either from -seeds (comma-separated values) or the pair
// -seed-base/-runs (N consecutive seeds starting at the base). -scenarios
// is a comma-separated list of specs:
//
//	baseline              the full study period, remediation on
//	no-remediation        the §5.6 ablation
//	elevate:YEAR:FACTOR   burn drill — fault rates × FACTOR during YEAR
//	default               shorthand for all three standard scenarios
//
// With -backbone, every run also reports its backbone's edge
// availability and median edge MTBF/MTTR. A backbone depends on the seed
// and scale only, so each (seed, scale) leg is simulated once, before the
// intra-DC runs, and shared by every scenario's run at that pair.
//
// The aggregated report goes to -out (default sweep_report.json); it is
// byte-identical for a given grid at any -workers value, so reports can be
// diffed across machines and runs. With -runs-out, every per-run record is
// streamed to FILE as JSON lines in run order; with -metrics-out, the
// merged metrics snapshot of all runs; with -trace, a Chrome trace-event
// file with one lane per pool worker. With -log-level, one progress record
// per completed run goes to stderr.
//
// With -journal, every run's causal incident journal is streamed to FILE
// in run order: a header line naming the run, then one JSONL record per
// fault-lifecycle event (record IDs restart at each header; index one
// run's section at a time with dcnr.ReadJournal). The stream is
// byte-identical at any -workers value.
//
// With -timeline, every run's metric timeline — its core series sampled on
// the simulation clock once per simulated day — is streamed to FILE in run
// order: a header line naming the run, then one {"t":H,"m":NAME,"v":V}
// sample per line. The stream is
// byte-identical at any -workers value.
//
// -status-addr serves live campaign introspection over HTTP while the
// sweep runs: /campaign (a JSON snapshot — per-run state, completed/total,
// per-run resource attribution, z-score straggler flags, live cross-run
// p5/p95 bands) and /journal (the merged causal-journal summary of
// completed runs). Both are polled; dcnrtop renders /campaign as a live
// dashboard. A failed bind is logged and the campaign proceeds without
// introspection; the report is byte-identical either way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"dcnr"
	"dcnr/internal/serve"
)

func main() {
	var o options
	flag.StringVar(&o.seeds, "seeds", "", "comma-separated seeds to sweep (overrides -seed-base/-runs)")
	flag.Uint64Var(&o.seedBase, "seed-base", 1, "first seed when -seeds is not given")
	flag.IntVar(&o.runs, "runs", 16, "number of consecutive seeds when -seeds is not given")
	flag.StringVar(&o.scales, "scales", "1", "comma-separated fleet scales to sweep")
	flag.StringVar(&o.scenarios, "scenarios", "baseline", "comma-separated scenario specs (baseline, no-remediation, elevate:YEAR:FACTOR, default)")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size (0 = one per CPU; clamped to the CPU count)")
	flag.BoolVar(&o.backbone, "backbone", false, "add an inter-DC backbone leg to every run; each (seed, scale) backbone is simulated once and shared by every scenario's run")
	flag.StringVar(&o.out, "out", "sweep_report.json", "write the aggregated report to this file")
	flag.StringVar(&o.runsOut, "runs-out", "", "stream per-run JSONL records to this file")
	flag.StringVar(&o.journalOut, "journal", "", "stream every run's causal incident journal to this file")
	flag.StringVar(&o.timelineOut, "timeline", "", "stream every run's metric timeline to this file as JSONL")
	flag.StringVar(&o.statusAddr, "status-addr", "", "serve live campaign status on this address (e.g. :8080) while the sweep runs")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the merged metrics snapshot of all runs to this file")
	flag.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event file to this file")
	flag.StringVar(&o.logLevel, "log-level", "", "enable per-run progress logs to stderr at this level (debug, info, warn, error)")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dcsweep:", err)
		os.Exit(1)
	}
}

// options collects every dcsweep knob; the defaults run a 16-seed baseline
// sweep at scale 1.
type options struct {
	seeds       string
	seedBase    uint64
	runs        int
	scales      string
	scenarios   string
	workers     int
	backbone    bool
	out         string
	runsOut     string
	journalOut  string
	timelineOut string
	statusAddr  string
	metricsOut  string
	traceOut    string
	logLevel    string
	logFormat   string
	logW        io.Writer // log destination; nil means os.Stderr
	stdout      io.Writer // summary destination; nil means os.Stdout
}

// sweepConfig turns the grid and telemetry flags into the campaign's
// config, returning the tracer it installed (nil without -trace). The
// file outputs and the status server are run's, because they need closing.
func sweepConfig(o options) (dcnr.SweepConfig, *dcnr.Tracer, error) {
	seeds, err := parseSeeds(o.seeds, o.seedBase, o.runs)
	if err != nil {
		return dcnr.SweepConfig{}, nil, err
	}
	scales, err := parseInts(o.scales)
	if err != nil {
		return dcnr.SweepConfig{}, nil, fmt.Errorf("-scales: %w", err)
	}
	scenarios, err := parseScenarios(o.scenarios)
	if err != nil {
		return dcnr.SweepConfig{}, nil, err
	}

	cfg := dcnr.SweepConfig{
		Seeds:     seeds,
		Scales:    scales,
		Scenarios: scenarios,
		Workers:   o.workers,
		Backbone:  o.backbone,
	}

	// Telemetry is opt-in, exactly as in dcsim: nil wiring is a zero-cost
	// no-op inside the runs. The registry turns on the per-run merge that
	// only -metrics-out reads.
	if o.metricsOut != "" {
		cfg.Observe.Metrics = dcnr.NewMetricsRegistry()
	}
	var tracer *dcnr.Tracer
	if o.traceOut != "" {
		tracer = dcnr.NewTracer()
		cfg.Observe.Trace = tracer
	}
	if o.logLevel != "" {
		level, err := dcnr.ParseLogLevel(o.logLevel)
		if err != nil {
			return dcnr.SweepConfig{}, nil, err
		}
		w := o.logW
		if w == nil {
			w = os.Stderr
		}
		h, err := dcnr.NewSimLogHandler(w, o.logFormat, level, nil)
		if err != nil {
			return dcnr.SweepConfig{}, nil, err
		}
		cfg.Observe.Logger = slog.New(h)
	}
	return cfg, tracer, nil
}

func run(o options) error {
	cfg, tracer, err := sweepConfig(o)
	if err != nil {
		return err
	}

	// The streamed outputs are closed, with the error checked, once the
	// sweep returns; an earlier return (a later os.Create failing, say)
	// closes the ones already open through the deferred call.
	var outputs []*os.File
	closeOutputs := func() error {
		var err error
		for _, f := range outputs {
			err = errors.Join(err, f.Close())
		}
		outputs = nil
		return err
	}
	defer func() { _ = closeOutputs() }()
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{o.runsOut, &cfg.Results},
		{o.journalOut, &cfg.Journal},
		{o.timelineOut, &cfg.Timeline},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		outputs = append(outputs, f)
		*out.dst = f
	}
	stdout := o.stdout
	if stdout == nil {
		stdout = os.Stdout
	}
	if o.statusAddr != "" {
		status := dcnr.NewSweepStatus()
		cfg.Status = status
		logger := opsLogger(o, cfg.Observe.Logger)
		if shutdown, addr, serveErr := serveStatus(o.statusAddr, status, logger); serveErr != nil {
			// A dead status endpoint is an observability gap, not a reason
			// to abandon the campaign — report it and sweep anyway.
			logger.Warn("campaign status server failed to bind; sweeping without introspection",
				"addr", o.statusAddr, "err", serveErr)
		} else {
			defer shutdown()
			if _, err := fmt.Fprintf(stdout, "status: http://%s (/campaign, /journal)\n", addr); err != nil {
				return err
			}
		}
	}
	res, err := dcnr.Sweep(cfg)
	if err := errors.Join(err, closeOutputs()); err != nil {
		return err
	}

	if err := writeFile(o.out, res.WriteReport); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "sweep: %d runs (%d seeds × %d scales × %d scenarios) → %s\n",
		len(res.Runs), len(cfg.Seeds), len(cfg.Scales), len(cfg.Scenarios), o.out); err != nil {
		return err
	}
	for _, g := range res.Report.Groups {
		if _, err := fmt.Fprintf(stdout, "  %s ×%d: incidents %.0f [p5 %.0f, p95 %.0f] over %d seeds\n",
			g.Scenario, g.Scale, g.Incidents.Mean, g.Incidents.P5, g.Incidents.P95, g.Seeds); err != nil {
			return err
		}
	}

	if o.metricsOut != "" {
		if err := writeFile(o.metricsOut, res.Metrics.WriteJSON); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "metrics: %s\n", o.metricsOut); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		if err := writeFile(o.traceOut, tracer.WriteJSON); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "trace: %d events → %s\n", tracer.Len(), o.traceOut); err != nil {
			return err
		}
	}
	if o.journalOut != "" {
		if _, err := fmt.Fprintf(stdout, "journal: %s\n", o.journalOut); err != nil {
			return err
		}
	}
	if o.timelineOut != "" {
		if _, err := fmt.Fprintf(stdout, "timeline: %s\n", o.timelineOut); err != nil {
			return err
		}
	}
	return nil
}

// serveStatus binds the campaign status endpoints on addr — status's
// /campaign and /journal — and serves them until the returned shutdown
// function is called. Shutdown severs any open connection and joins the
// serving goroutine, so nothing it spawned can outlive the sweep — in
// particular no late logger.Warn against a writer the caller has already
// torn down. It returns the bound address so ":0" works in tests.
func serveStatus(addr string, status *dcnr.SweepStatus, logger *slog.Logger) (func(), string, error) {
	srv := serve.New(serve.Options{Addr: addr, Name: "campaign status", Logger: logger})
	srv.Register("/", status.Handler())
	bound, err := srv.Start()
	if err != nil {
		return nil, "", err
	}
	return srv.Shutdown, bound, nil
}

// opsLogger returns the campaign logger, falling back — when -log-level is
// absent — to a warn-level SimHandler logger on stderr, so operational
// problems (a status server that cannot bind or dies mid-campaign) are
// reported even on otherwise-silent runs.
func opsLogger(o options, configured *slog.Logger) *slog.Logger {
	if configured != nil {
		return configured
	}
	w := o.logW
	if w == nil {
		w = os.Stderr
	}
	format := o.logFormat
	if format == "" {
		format = "text"
	}
	h, err := dcnr.NewSimLogHandler(w, format, slog.LevelWarn, nil)
	if err != nil {
		// Unreachable for the fixed text/json formats; fall back to slog's
		// default handler rather than dropping the report.
		return slog.New(slog.NewTextHandler(w, nil))
	}
	return slog.New(h)
}

// parseSeeds resolves the seed list: an explicit CSV wins; otherwise runs
// consecutive seeds starting at base.
func parseSeeds(csv string, base uint64, runs int) ([]uint64, error) {
	if csv != "" {
		parts := strings.Split(csv, ",")
		seeds := make([]uint64, 0, len(parts))
		for _, p := range parts {
			s, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("-seeds: %w", err)
			}
			seeds = append(seeds, s)
		}
		return seeds, nil
	}
	if runs <= 0 {
		return nil, fmt.Errorf("-runs must be positive, got %d", runs)
	}
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds, nil
}

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// parseScenarios turns the -scenarios spec list into sweep scenarios.
func parseScenarios(csv string) ([]dcnr.SweepScenario, error) {
	var out []dcnr.SweepScenario
	for _, spec := range strings.Split(csv, ",") {
		spec = strings.TrimSpace(spec)
		switch {
		case spec == "default":
			out = append(out, dcnr.DefaultSweepScenarios()...)
		case spec == "baseline":
			out = append(out, dcnr.SweepScenario{Name: "baseline"})
		case spec == "no-remediation":
			out = append(out, dcnr.SweepScenario{Name: "no-remediation", DisableRemediation: true})
		case strings.HasPrefix(spec, "elevate:"):
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("-scenarios: %q: want elevate:YEAR:FACTOR", spec)
			}
			year, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("-scenarios: %q: %w", spec, err)
			}
			factor, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("-scenarios: %q: %w", spec, err)
			}
			out = append(out, dcnr.SweepScenario{
				Name:          fmt.Sprintf("elevate-%dx%g", year, factor),
				ElevateYear:   year,
				ElevateFactor: factor,
			})
		default:
			return nil, fmt.Errorf("-scenarios: unknown spec %q", spec)
		}
	}
	return out, nil
}

// writeFile creates path, streams the report through write, and closes the
// file, losing neither the write error nor the close error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
