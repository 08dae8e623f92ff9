// Package observe defines the shared observability wiring that the
// simulation entry points and the query daemon accept: a metrics registry,
// a trace recorder, a streaming SLO engine, a structured logger, a causal
// journal and a metric timeline.
//
// Observe is declared once and embedded by each config (sim.IntraConfig,
// backbone.Config, sweep.Config; serve.Config holds one as Obs). Every
// field follows the project-wide nil contract: a nil field means "not
// instrumented" and costs the hot paths nothing. Not every consumer reads
// every field; each config's Validate rejects a non-nil field its entry
// point would ignore and names it in the error. The intra-DC simulation
// reads them all; the backbone simulation reads Metrics and Trace; a sweep
// reads Metrics, Trace and Logger; the daemon reads Metrics, Health,
// Logger and Journal.
package observe

import (
	"log/slog"

	"dcnr/internal/obs"
	"dcnr/internal/obs/health"
	"dcnr/internal/obs/journal"
	"dcnr/internal/obs/timeline"
)

// Observe bundles the optional observability sinks a simulation reports
// into. The zero value is a fully uninstrumented run.
type Observe struct {
	// Metrics, when non-nil, receives counters, gauges, and histograms
	// from the instrumented hot paths (DES kernel, remediation engine,
	// SEV query engine, sweep engine).
	Metrics *obs.Registry
	// Trace, when non-nil, records Chrome trace-event spans (wall-clock
	// and simulation-time lanes); write with Tracer.WriteJSON and load in
	// chrome://tracing or Perfetto.
	Trace *obs.Tracer
	// Health, when non-nil, receives the fault/repair/incident stream and
	// judges the run against its calibration targets live.
	Health *health.Engine
	// Logger, when non-nil, receives structured records carrying the
	// simulation clock; build the handler with obs.NewSimHandler.
	Logger *slog.Logger
	// Journal, when non-nil, records the causal lifecycle of every fault
	// (raised → detected → ticket → dispatched/escalated → repaired →
	// incident) as fixed-size records linked by parent IDs; write with
	// Journal.WriteJSONL, query with Journal.Index. A journal records one
	// run (its writers share one single-writer ring), so give each run
	// its own.
	Journal *journal.Journal
	// Timeline, when non-nil, samples the run's registry on the
	// timeline's sim-time cadence grid into time-series records: the
	// metric history a final Snapshot flattens away. A timeline without
	// Metrics still works — the wiring instruments the run with a
	// private registry just for sampling. Write with
	// Timeline.WriteJSONL, read back with Timeline.Samples.
	Timeline *timeline.Timeline
}
