// Command dcnrd is the long-running SEV query daemon: it loads (or
// simulates) a SEV dataset into one indexed in-memory store and serves
// every table/figure aggregation of the paper over HTTP/JSON until
// interrupted.
//
// Usage:
//
//	dcnrd [-addr HOST:PORT] [-cache N]
//	      [-sevs FILE | -simulate] [-seed N] [-scale N]
//	      [-log-level LEVEL] [-log-format text|json]
//
// Endpoints:
//
//	/query/count        SEV counts, filterable (year, device, severity,
//	                    design, cause, since, until) and groupable
//	                    (?by=device|severity|year|cause|severity-device|
//	                    year-severity|year-device|year-design)
//	/query/resolutions  resolution-time percentile bands (count, mean,
//	                    p50/p75/p90/p99), groupable by device or year
//	/ingest             POST a JSON array of reports; the batch lands
//	                    atomically and bumps the dataset generation
//	/stats              dataset + cache counters
//
// Query responses are cached in an LRU keyed by normalized query +
// dataset generation and carry an ETag; clients replaying If-None-Match
// see 304 until an ingest changes the dataset under them. The full
// runtime-introspection suite (/metrics, /healthz, /slo, /journal,
// /metrics/history + SSE, /debug/pprof/) is mounted alongside, with a
// wall-clock timeline sampling the serve_* series once a second.
//
// -sevs loads a dataset file (the sevs.json shape dcsim writes);
// -simulate generates one in-process with the study simulation at
// -seed/-scale, wiring the simulation's own journal and SLO engine into
// the daemon's /journal and /healthz. Without either, the daemon starts
// empty and fills over POST /ingest.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcnr"
	"dcnr/internal/serve"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (\":0\" binds a free port)")
	flag.IntVar(&o.cache, "cache", serve.DefaultCacheEntries, "result cache capacity in entries")
	flag.StringVar(&o.sevs, "sevs", "", "load this SEV dataset file (sevs.json) at startup")
	flag.BoolVar(&o.simulate, "simulate", false, "generate the dataset in-process with the study simulation")
	flag.Uint64Var(&o.seed, "seed", 20181031, "simulation seed for -simulate")
	flag.IntVar(&o.scale, "scale", 1, "fleet population scale for -simulate")
	flag.StringVar(&o.logLevel, "log-level", "", "structured logs to stderr at this level (debug, info, warn, error)")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.Parse()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := runDaemon(o, os.Stderr, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "dcnrd:", err)
		os.Exit(1)
	}
}

// options collects every dcnrd knob.
type options struct {
	addr      string
	cache     int
	sevs      string
	simulate  bool
	seed      uint64
	scale     int
	logLevel  string
	logFormat string
}

// runDaemon builds, loads, and serves the daemon until stop delivers.
// ready (when non-nil) receives the bound address once the listener is
// up — the e2e test's hook for ":0". Teardown order matters: stop the
// sampler, close the timeline so SSE subscribers end, then shut the
// daemon down (severing connections and joining the serving goroutine).
func runDaemon(o options, stderr io.Writer, ready func(addr string), stop <-chan os.Signal) error {
	reg := dcnr.NewMetricsRegistry()
	var logger *slog.Logger
	if o.logLevel != "" {
		level, err := dcnr.ParseLogLevel(o.logLevel)
		if err != nil {
			return err
		}
		h, err := dcnr.NewSimLogHandler(stderr, o.logFormat, level, nil)
		if err != nil {
			return err
		}
		logger = slog.New(h)
	}

	// With -simulate the simulation and the daemon share one obs stack:
	// the journal and SLO engine the run filled back /journal and
	// /healthz, and the same registry carries both the sim_* and serve_*
	// series.
	var (
		health *dcnr.HealthEngine
		jnl    *dcnr.Journal
	)
	if o.simulate {
		var err error
		health, err = dcnr.NewHealthEngine(dcnr.HealthTargetsForScale(o.scale), nil)
		if err != nil {
			return err
		}
		jnl = dcnr.NewJournal()
	}
	tl := dcnr.NewTimeline(0)

	cfg := serve.Config{
		Addr:         o.addr,
		CacheEntries: o.cache,
		Obs: dcnr.Observe{
			Metrics: reg, Health: health, Logger: logger,
			Journal: jnl, Timeline: tl,
		},
	}
	d, err := serve.NewDaemon(&cfg)
	if err != nil {
		return err
	}
	defer d.Shutdown()

	switch {
	case o.sevs != "" && o.simulate:
		return fmt.Errorf("-sevs and -simulate are mutually exclusive")
	case o.sevs != "":
		f, err := os.Open(o.sevs)
		if err != nil {
			return err
		}
		loadErr := d.LoadJSON(f)
		if err := f.Close(); err != nil {
			return err
		}
		if loadErr != nil {
			return fmt.Errorf("loading %s: %w", o.sevs, loadErr)
		}
		_, _ = fmt.Fprintf(stderr, "dcnrd: loaded %d reports from %s\n", d.Store().Len(), o.sevs)
	case o.simulate:
		res, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{
			Observe: dcnr.Observe{
				Metrics: reg, Health: health, Logger: logger, Journal: jnl,
			},
			Seed: o.seed, Scale: o.scale,
		})
		if err != nil {
			return err
		}
		if _, err := d.Store().AddAll(res.Store.All()); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(stderr, "dcnrd: simulated %d reports (seed %d, scale %d)\n", d.Store().Len(), o.seed, o.scale)
	}

	// The wall timeline samples the serve_* request counters once a
	// second for /metrics/history and its SSE stream.
	smp := dcnr.NewTimelineSampler(tl, "wall", reg, []string{
		"serve_queries_total", "serve_cache_hits_total",
		"serve_cache_misses_total", "serve_ingest_reports_total",
	}, nil)
	defer tl.Close()
	stopSampler := smp.StartWall(time.Second)
	defer stopSampler()

	addr, err := d.Start()
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(stderr, "dcnrd: %s serving on http://%s (/query/count, /query/resolutions, /ingest, /stats, /metrics, /metrics/history)\n", d, addr)
	if ready != nil {
		ready(addr)
	}
	<-stop
	_, _ = fmt.Fprintln(stderr, "dcnrd: shutting down")
	return nil
}
