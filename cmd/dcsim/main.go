// Command dcsim runs the full study simulation — seven years of intra-data-
// center operation and eighteen months of backbone operation — and writes
// the generated datasets to disk for later analysis with the dcnr library,
// or for serving: dcnrd -sevs loads sevs.json, and sevquery answers one
// dcnrd query target over it offline.
//
// Usage:
//
//	dcsim [-seed N] [-scale N] [-out DIR] [-metrics-out FILE] [-trace FILE]
//	      [-journal FILE] [-health-out FILE]
//	      [-timeline FILE]
//	      [-log-level LEVEL] [-log-format text|json]
//	      [-elevate-year YEAR] [-elevate-factor F]
//
// Outputs: DIR/sevs.json (the SEV dataset) and DIR/tickets.txt (the vendor
// notice archive). With -metrics-out, a JSON snapshot of the simulation's
// metrics (event counts, remediation queue histograms, query-path counters)
// is written to FILE; with -trace, a Chrome trace-event file loadable in
// chrome://tracing or Perfetto.
//
// With -journal, the intra-DC run records its causal incident journal —
// one JSONL record per fault-lifecycle event (fault_raised, fault_detected,
// ticket_cut, dispatched, escalated, repaired, incident_opened,
// incident_closed), each linked to its cause by parent ID — and writes it
// to FILE; every SEV in sevs.json then resolves to a complete causal chain
// (load the stream back with dcnr.ReadJournal).
//
// With -timeline, the intra-DC run samples its core metric series on a
// simulation-clock grid — one point per simulated day — and writes the
// history to FILE as JSONL, one {"t":H,"m":NAME,"v":V} sample per line.
// The sampler rides the event kernel, so the file is byte-identical for a
// given seed and scale no matter the wall-clock conditions.
//
// With -health-out, a streaming SLO engine follows the intra-DC run —
// incident burn rates, MTTR degradation, alert rule transitions — and its
// final report is written to FILE as JSON. With -log-level, structured logs
// go to stderr carrying both the wall clock and the simulation clock
// (sim_hours); -log-format picks text or JSON records. The -elevate-year /
// -elevate-factor pair multiplies fault rates for one calendar year, which
// drives the health rules through their pending→firing→resolved lifecycle —
// useful for alert-pipeline drills.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"dcnr"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/tickets"
)

func main() {
	var o options
	flag.Uint64Var(&o.seed, "seed", 20181031, "simulation seed")
	flag.IntVar(&o.scale, "scale", 1, "fleet population scale")
	flag.StringVar(&o.dir, "out", ".", "output directory")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file")
	flag.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event file to this file")
	flag.StringVar(&o.journalOut, "journal", "", "write the causal incident journal as JSONL to this file")
	flag.StringVar(&o.healthOut, "health-out", "", "run the SLO/health engine and write its report to this file")
	flag.StringVar(&o.timelineOut, "timeline", "", "sample metric timelines on the simulation clock and write them as JSONL to this file")
	flag.StringVar(&o.logLevel, "log-level", "", "enable structured logs to stderr at this level (debug, info, warn, error)")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.IntVar(&o.elevateYear, "elevate-year", 0, "multiply intra-DC fault rates during this calendar year")
	flag.Float64Var(&o.elevateFactor, "elevate-factor", 0, "fault-rate multiplier applied in -elevate-year")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}
}

// options collects every dcsim knob; the zero value plus seed/scale/dir is
// a plain uninstrumented run.
type options struct {
	seed          uint64
	scale         int
	dir           string
	metricsOut    string
	traceOut      string
	journalOut    string
	healthOut     string
	timelineOut   string
	logLevel      string
	logFormat     string
	elevateYear   int
	elevateFactor float64
	logW          io.Writer // log destination; nil means os.Stderr
}

func run(o options) (err error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}

	// Telemetry is opt-in: uninstrumented runs keep nil registry/tracer/
	// engine/logger, which the simulation hot paths treat as zero-cost
	// no-ops. Logging needs the registry too: the handler reads the
	// des_sim_hours gauge to stamp records with the simulation clock.
	var reg *dcnr.MetricsRegistry
	if o.metricsOut != "" || o.logLevel != "" {
		reg = dcnr.NewMetricsRegistry()
	}
	var tracer *dcnr.Tracer
	if o.traceOut != "" {
		tracer = dcnr.NewTracer()
	}
	var health *dcnr.HealthEngine
	if o.healthOut != "" {
		var err error
		health, err = dcnr.NewHealthEngine(dcnr.HealthTargetsForScale(o.scale), nil)
		if err != nil {
			return err
		}
	}
	var jnl *dcnr.Journal
	if o.journalOut != "" {
		jnl = dcnr.NewJournal()
	}
	var tline *dcnr.Timeline
	if o.timelineOut != "" {
		tline = dcnr.NewTimeline()
	}
	var logger *slog.Logger
	if o.logLevel != "" {
		level, err := dcnr.ParseLogLevel(o.logLevel)
		if err != nil {
			return err
		}
		w := o.logW
		if w == nil {
			w = os.Stderr
		}
		h, err := dcnr.NewSimLogHandler(w, o.logFormat, level, reg.Gauge("des_sim_hours"))
		if err != nil {
			return err
		}
		logger = slog.New(h)
	}

	intra, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{
		Observe: dcnr.Observe{
			Metrics: reg, Trace: tracer, Health: health,
			Logger: logger, Journal: jnl, Timeline: tline,
		},
		Seed: o.seed, Scale: o.scale,
		ElevateYear: o.elevateYear, ElevateFactor: o.elevateFactor,
	})
	if err != nil {
		return err
	}
	// The intra-DC trace is the bulk of the file (a couple hundred
	// thousand spans); start streaming it to disk now, while the backbone
	// phase simulates on a fork of the same timeline. The fork is appended
	// once the backbone finishes, so the write costs almost no wall time.
	//
	// Like the trace, the journal (a few hundred thousand records) is
	// indexed and streamed to disk while the backbone phase simulates;
	// finishJournal joins the writer before the totals are printed. The
	// index is built inside the goroutine too, so copying the journal's
	// blocks into one record array stays off the main path.
	//
	// Both finish functions are idempotent, and every return joins them,
	// so no writer goroutine or open file outlives run and the trace
	// always gets its trailer.
	var (
		bbTracer   *dcnr.Tracer
		traceFile  *os.File
		traceWrite *dcnr.TraceJSONWriter
		traceDone  chan error

		journalIdx  *dcnr.JournalIndex
		journalFile *os.File
		journalDone chan error
	)
	finishTrace := func() error {
		if traceFile == nil {
			return nil
		}
		err := <-traceDone
		if err == nil {
			err = traceWrite.Add(bbTracer)
		}
		err = errors.Join(err, traceWrite.Close(), traceFile.Close())
		traceFile = nil
		return err
	}
	finishJournal := func() error {
		if journalFile == nil {
			return nil
		}
		err := errors.Join(<-journalDone, journalFile.Close())
		journalFile = nil
		return err
	}
	defer func() { err = errors.Join(err, finishJournal(), finishTrace()) }()

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		traceWrite = dcnr.NewTraceJSONWriter(f)
		traceDone = make(chan error, 1)
		go func() { traceDone <- traceWrite.Add(tracer) }()
		bbTracer = tracer.Fork()
	}
	if o.journalOut != "" {
		f, err := os.Create(o.journalOut)
		if err != nil {
			return err
		}
		journalFile = f
		journalDone = make(chan error, 1)
		go func() {
			journalIdx = jnl.Index()
			journalDone <- journalIdx.WriteJSONL(f)
		}()
	}

	sevPath := filepath.Join(o.dir, "sevs.json")
	if err := writeFile(sevPath, intra.Store.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("intra-DC: %d faults → %d SEVs (%d years) → %s\n",
		intra.Faults, intra.Incidents, dcnr.LastYear-dcnr.FirstYear+1, sevPath)

	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = o.seed
	cfg.Metrics = reg
	cfg.Trace = bbTracer
	inter, err := dcnr.SimulateBackbone(cfg)
	if err != nil {
		return err
	}
	ticketPath := filepath.Join(o.dir, "tickets.txt")
	if err := writeFile(ticketPath, func(w io.Writer) error {
		return tickets.WriteAll(w, inter.Notices)
	}); err != nil {
		return err
	}
	fmt.Printf("backbone: %d edges, %d links, %d vendors, %d repair tickets → %s\n",
		len(inter.Topology.Edges), len(inter.Topology.Links), len(inter.Topology.Vendors),
		len(inter.Notices), ticketPath)

	if o.journalOut != "" {
		if err := finishJournal(); err != nil {
			return err
		}
		chains := dcnr.AttachJournal(intra.Store, journalIdx)
		fmt.Printf("journal: %d records, %d incident chains → %s\n",
			journalIdx.Len(), chains, o.journalOut)
	}

	if o.timelineOut != "" {
		if err := writeFile(o.timelineOut, tline.WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("timeline: %d samples (every %gh of sim time) → %s\n",
			tline.Len(), timeline.DefaultCadence, o.timelineOut)
	}

	if o.healthOut != "" {
		if err := writeFile(o.healthOut, health.WriteJSON); err != nil {
			return err
		}
		rep := health.Report()
		fmt.Printf("health: healthy=%v, %d alert transitions → %s\n",
			rep.Healthy, len(rep.Transitions), o.healthOut)
	}
	if o.metricsOut != "" {
		if err := writeMetrics(o.metricsOut, reg); err != nil {
			return err
		}
		fmt.Printf("metrics: %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		if err := finishTrace(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events → %s\n", tracer.Len()+bbTracer.Len(), o.traceOut)
	}
	return nil
}

// writeFile creates path, streams the dataset through write, and closes
// the file, losing neither the write error nor the close error (a failed
// close on a buffered filesystem is a truncated dataset).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

func writeMetrics(path string, reg *dcnr.MetricsRegistry) error {
	return writeFile(path, reg.Snapshot().WriteJSON)
}
