package dcnr

// This file re-exports the library's domain types and constants so that
// downstream code can name them without reaching into internal packages.
// All aliases are true type aliases: values flow freely between the facade
// and the internal implementations.

import (
	"io"
	"log/slog"

	"dcnr/internal/backbone"
	"dcnr/internal/core"
	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/notify"
	"dcnr/internal/obs"
	"dcnr/internal/obs/health"
	"dcnr/internal/obs/journal"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/observe"
	"dcnr/internal/remediation"
	"dcnr/internal/serve"
	"dcnr/internal/sev"
	"dcnr/internal/sim"
	"dcnr/internal/stats"
	"dcnr/internal/sweep"
	"dcnr/internal/tickets"
	"dcnr/internal/topology"
)

// Observe bundles the observability wiring shared by every simulation
// entry point: Metrics, Trace, Health, and Logger. It is embedded by
// IntraConfig, BackboneConfig, and SweepConfig; set it once and pass the
// same struct to any plane:
//
//	o := dcnr.Observe{Metrics: dcnr.NewMetricsRegistry()}
//	res, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{Observe: o})
type Observe = observe.Observe

// IntraConfig parameterizes the intra-data-center simulation. The
// embedded Observe struct carries the observability wiring.
type IntraConfig = sim.IntraConfig

// IntraResult carries the generated dataset and its analysis handles.
type IntraResult = sim.IntraResult

// BackboneResult carries the generated backbone dataset and its analysis.
type BackboneResult = sim.BackboneResult

// SweepConfig parameterizes a scenario-sweep campaign: the seed × scale ×
// scenario grid, the worker-pool bound, and the JSONL results stream.
type SweepConfig = sweep.Config

// SweepScenario is one named variant of the simulation inside a sweep —
// the baseline, the no-remediation ablation, a burn drill, or a year
// slice.
type SweepScenario = sweep.Scenario

// SweepRunStats is the per-run record a sweep reduces each simulation to:
// one JSON line of the Results stream.
type SweepRunStats = sweep.RunStats

// SweepBand is the cross-run distribution of one statistic: mean with an
// empirical p5–p95 band.
type SweepBand = sweep.Band

// SweepGroup aggregates every run sharing a (scenario, scale) cell.
type SweepGroup = sweep.Group

// SweepReport is the aggregated campaign output, deterministic for a
// given grid; write it with SweepResult.WriteReport.
type SweepReport = sweep.Report

// SweepResult is a completed campaign: report, per-run records, and the
// merged metrics of every instrumented run.
type SweepResult = sweep.Result

// DefaultSweepScenarios returns the standard campaign scenarios: baseline,
// the §5.6 no-remediation ablation, and a 5× burn drill in 2014.
func DefaultSweepScenarios() []SweepScenario { return sweep.DefaultScenarios() }

// Study period bounds.
const (
	// FirstYear is the first year of the intra-DC study period.
	FirstYear = fleet.FirstYear
	// LastYear is the final year of the intra-DC study period.
	LastYear = fleet.LastYear
	// FabricDeployYear is when the fabric design enters the fleet.
	FabricDeployYear = fleet.FabricDeployYear
	// AutomatedRepairYear is when automated remediation was enabled.
	AutomatedRepairYear = fleet.AutomatedRepairYear
)

// DeviceType identifies a network device type (RSW, CSW, …, Core).
type DeviceType = topology.DeviceType

// Device type constants, in the paper's display order.
const (
	RSW  = topology.RSW
	CSW  = topology.CSW
	CSA  = topology.CSA
	FSW  = topology.FSW
	SSW  = topology.SSW
	ESW  = topology.ESW
	Core = topology.Core
	BBR  = topology.BBR
)

// DeviceTypes lists every device type; IntraDCTypes the intra-DC subset.
var (
	DeviceTypes  = topology.DeviceTypes
	IntraDCTypes = topology.IntraDCTypes
)

// Design identifies a network design generation.
type Design = topology.Design

// Network design constants.
const (
	DesignShared  = topology.DesignShared
	DesignCluster = topology.DesignCluster
	DesignFabric  = topology.DesignFabric
)

// Severity is a SEV level (Sev1 highest, Sev3 lowest).
type Severity = sev.Severity

// Severity constants.
const (
	Sev1 = sev.Sev1
	Sev2 = sev.Sev2
	Sev3 = sev.Sev3
)

// Severities lists the SEV levels from most to least severe.
var Severities = sev.Severities

// RootCause is a Table 2 root-cause category.
type RootCause = sev.RootCause

// Root-cause constants (Table 2).
const (
	Maintenance   = sev.Maintenance
	Hardware      = sev.Hardware
	Configuration = sev.Configuration
	Bug           = sev.Bug
	Accident      = sev.Accident
	Capacity      = sev.Capacity
	Undetermined  = sev.Undetermined
)

// RootCauses lists the categories in Table 2 order.
var RootCauses = sev.RootCauses

// SEVReport is one service-level event report (§4.2).
type SEVReport = sev.Report

// SEVStore holds SEV reports and answers aggregate queries through an
// indexed query engine (posting lists per year, device type, severity,
// design, and root cause).
type SEVStore = sev.Store

// SEVQuery is a filtered, index-accelerated view over a SEVStore's
// reports; obtain one with SEVStore.Query and narrow it with the With*
// methods.
type SEVQuery = sev.Query

// NewSEVStore returns an empty SEV store.
func NewSEVStore() *SEVStore { return sev.NewStore() }

// ServeConfig parameterizes a SEV query daemon: listen address,
// result-cache capacity, and the shared Observe wiring. Validate
// fills defaults and rejects out-of-range values; NewSEVDaemon calls it
// for you.
type ServeConfig = serve.Config

// ServeServer is the unified HTTP serving surface shared by repro,
// dcsweep, and dcnrd: New -> Register -> Start -> Shutdown, with
// optional observability endpoints mounted from whatever obs handles
// the Options carry. A nil *ServeServer no-ops Register and Shutdown.
type ServeServer = serve.Server

// ServeOptions configures a ServeServer: address, log label, and the
// nil-safe obs handles whose endpoints it should mount.
type ServeOptions = serve.Options

// NewServeServer returns an unstarted server for the given options.
func NewServeServer(opts ServeOptions) *ServeServer { return serve.New(opts) }

// SEVDaemon is the long-running query daemon behind cmd/dcnrd: one
// SEVStore served over HTTP/JSON (/query/count,
// /query/resolutions, /ingest, /stats) with an LRU result cache keyed
// by normalized query + dataset generation and ETag/If-None-Match
// revalidation. Shutdown is idempotent.
type SEVDaemon = serve.Daemon

// NewSEVDaemon validates cfg and returns an unstarted daemon.
func NewSEVDaemon(cfg *ServeConfig) (*SEVDaemon, error) { return serve.NewDaemon(cfg) }

// Fleet models device populations over the study period.
type Fleet = fleet.Model

// NewFleet returns a fleet model at the given population scale (>= 1).
func NewFleet(scale int) *Fleet { return fleet.New(scale) }

// IntraAnalysis computes the §5 statistics over a SEV dataset.
type IntraAnalysis = core.IntraAnalysis

// NewIntraAnalysis pairs a SEV dataset with its fleet model.
func NewIntraAnalysis(store *SEVStore, fl *Fleet) *IntraAnalysis {
	return core.NewIntraAnalysis(store, fl)
}

// InterAnalysis computes the §6 statistics over reconstructed vendor
// tickets.
type InterAnalysis = core.InterAnalysis

// NewInterAnalysis builds the inter-DC analysis over reconstructed
// downtime intervals, using the backbone inventory to enumerate links.
func NewInterAnalysis(topo *BackboneTopology, downs []Downtime, windowHours float64) (*InterAnalysis, error) {
	return core.NewInterAnalysis(topo, downs, windowHours)
}

// SeverityShare is one severity level's slice of Figure 4.
type SeverityShare = core.SeverityShare

// ClaimResult grades one of the paper's headline claims against a dataset
// (see IntraAnalysis.VerifyIntraClaims and InterAnalysis.VerifyInterClaims).
type ClaimResult = core.ClaimResult

// ContinentStats is one row of Table 4.
type ContinentStats = core.ContinentStats

// RemediationStats aggregates Table 1's per-device-type columns.
type RemediationStats = remediation.TypeStats

// FaultClass is the remediation taxonomy of §4.1.3.
type FaultClass = remediation.FaultClass

// BackboneConfig sizes the backbone and its simulation window.
type BackboneConfig = backbone.Config

// DefaultBackboneConfig returns the study-sized configuration (120 edges,
// 24 vendors, 18 months).
func DefaultBackboneConfig() BackboneConfig { return backbone.DefaultConfig() }

// BackboneTopology is a generated backbone inventory.
type BackboneTopology = backbone.Topology

// Continent locates an edge geographically (Table 4).
type Continent = backbone.Continent

// Continent constants.
const (
	NorthAmerica = backbone.NorthAmerica
	Europe       = backbone.Europe
	Asia         = backbone.Asia
	SouthAmerica = backbone.SouthAmerica
	Africa       = backbone.Africa
	Australia    = backbone.Australia
)

// Continents lists all continents in Table 4 order.
var Continents = backbone.Continents

// Notice is one vendor repair notification.
type Notice = tickets.Notice

// Downtime is one reconstructed link downtime interval.
type Downtime = tickets.Downtime

// TicketCollector pairs repair notices into downtime intervals.
type TicketCollector = tickets.Collector

// NewTicketCollector returns an empty collector.
func NewTicketCollector() *TicketCollector { return tickets.NewCollector() }

// ParseNotice decodes a vendor notice from its structured-email form.
func ParseNotice(text string) (Notice, error) { return tickets.Parse(text) }

// Point is an (X, Y) observation used by curves and fits.
type Point = stats.Point

// ExpFit is an exponential model y = A·e^(B·x) with its R².
type ExpFit = stats.ExpFit

// FitExponential fits y = A·e^(B·x) by least squares on log y, the §6.1
// modeling method.
func FitExponential(pts []Point) (ExpFit, error) { return stats.FitExponential(pts) }

// Curve converts a name→value metric into its percentile curve (Figures
// 15–18).
func Curve(metric map[string]float64) []Point { return core.Curve(metric) }

// FitCurve fits the exponential model to a metric's percentile curve.
func FitCurve(metric map[string]float64) (ExpFit, error) { return core.FitCurve(metric) }

// CompletenessIssues returns the §4.2 review findings for a report.
func CompletenessIssues(r *SEVReport) []string { return sev.CompletenessIssues(r) }

// MetricsRegistry is a concurrency-safe registry of counters, gauges, and
// histograms. Pass one through IntraConfig.Metrics / BackboneConfig.Metrics
// to collect simulation telemetry; read it back with Snapshot,
// WritePrometheus, or ExpvarVar.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's contents,
// JSON-serializable.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Tracer records Chrome trace-event spans (load the WriteJSON output in
// chrome://tracing or Perfetto). A nil *Tracer is a valid no-op recorder.
type Tracer = obs.Tracer

// TraceEvent is one recorded trace event.
type TraceEvent = obs.Event

// NewTracer returns a tracer whose wall clock starts now.
func NewTracer() *Tracer { return obs.NewTracer() }

// TraceJSONWriter streams one Chrome trace-event file from several
// tracers (header → Add per tracer → trailer), letting a caller overlap
// writing one phase's trace with simulating the next on a Tracer.Fork.
type TraceJSONWriter = obs.TraceJSONWriter

// NewTraceJSONWriter starts a trace file on w.
func NewTraceJSONWriter(w io.Writer) *TraceJSONWriter { return obs.NewTraceJSONWriter(w) }

// HealthEngine is the streaming SLO evaluator: it consumes the
// simulation's fault/repair/incident stream, computes rolling-window
// incident rates, MTBF/MTTR estimates, and error-budget burn rates against
// calibration targets, and runs declarative alert rules through a
// pending→firing→resolved state machine. A nil *HealthEngine is a valid
// no-op. Pass one through IntraConfig.Health / BackboneConfig.Health.
type HealthEngine = health.Engine

// HealthTargets holds the calibration-derived SLO objectives a
// HealthEngine evaluates against.
type HealthTargets = health.Targets

// HealthRule is one declarative alert condition (signal, multi-window
// thresholds, for-duration).
type HealthRule = health.Rule

// SLOReport is a point-in-time health summary: per-device-type statistics,
// rule states, and the alert transition history. JSON-serializable.
type SLOReport = health.SLOReport

// HealthSink receives one text line per alert transition. NotifyRecorder
// and the internal notify client both satisfy it.
type HealthSink = health.Sink

// NotifyRecorder is an in-memory HealthSink that accumulates alert
// notifications for post-run inspection.
type NotifyRecorder = notify.Recorder

// NewHealthEngine returns an engine evaluating rules against targets
// (nil/empty rules means DefaultHealthRules()).
func NewHealthEngine(targets HealthTargets, rules []HealthRule) (*HealthEngine, error) {
	return health.New(targets, rules)
}

// HealthTargetsForScale derives SLO targets from the same calibration
// tables that shape the generator, for a fleet at the given scale.
func HealthTargetsForScale(scale int) HealthTargets {
	if scale < 1 {
		scale = 1
	}
	return faults.HealthTargets(fleet.New(scale))
}

// DefaultHealthRules returns the standard intra-DC rule set: SRE-style
// fast and slow incident burn-rate rules plus an MTTR-degradation rule.
func DefaultHealthRules() []HealthRule { return health.DefaultRules() }

// EdgeHealthRules returns the backbone edge-availability rule set
// (requires HealthTargets.EdgeAvailability to be set).
func EdgeHealthRules() []HealthRule { return health.EdgeRules() }

// Journal is the causal incident journal: an allocation-conscious wide-
// event stream recording the full fault lifecycle (fault raised → detected
// → ticket cut → dispatched → escalated → repaired → incident opened →
// closed) with stable IDs linking every record to its cause. A nil
// *Journal is a valid no-op. Pass one through IntraConfig.Observe.Journal
// and serialize it with WriteJSONL.
type Journal = journal.Journal

// JournalID identifies one journal record; 0 means none.
type JournalID = journal.ID

// JournalRecord is one fixed-size, pointer-free journal record.
type JournalRecord = journal.Record

// JournalIndex is a read-side index over journal records: chain walks
// (Chain, Complete), incident enumeration, and MTTR phase decomposition
// (Summary).
type JournalIndex = journal.Index

// JournalSummary is the journal's aggregate view: record and lifecycle
// counts plus per-device-type phase decomposition.
type JournalSummary = journal.Summary

// JournalPhaseStats is one device type's MTTR phase decomposition row.
type JournalPhaseStats = journal.PhaseStats

// NewJournal returns a journal pre-loaded with the simulation's name
// tables (device types, fault classes, severities), ready for
// IntraConfig.Observe.Journal.
func NewJournal() *Journal { return faults.NewJournal() }

// ReadJournal indexes a JSONL journal stream written by Journal.WriteJSONL
// or dcsim -journal. Lines without an "id" field (dcsweep's per-run
// campaign headers) are skipped, but note that dcsweep journal streams
// restart IDs at each header — index one run's section at a time.
func ReadJournal(r io.Reader) (*JournalIndex, error) { return journal.ReadJSONL(r) }

// SEVProvenance is the causal-chain summary a journal attaches to one SEV
// report: the record chain plus per-phase timings.
type SEVProvenance = sev.Provenance

// AttachJournal walks every closed incident in the index and attaches its
// provenance to the matching report in the store (a side table — the
// store's JSON serialization is unchanged). Returns how many reports
// gained provenance; read it back with SEVStore.Provenance.
func AttachJournal(store *SEVStore, x *JournalIndex) int { return sev.AttachJournal(store, x) }

// Timeline turns the registry's point-in-time metrics into time series:
// a sampler driven by the simulation clock captures registry deltas into
// pointer-free fixed-width samples on a fixed cadence grid. A nil
// *Timeline is a valid no-op. Pass one through
// IntraConfig.Observe.Timeline (or SweepConfig.Timeline for per-run
// streams) and serialize it with WriteJSONL; serve ServeHistory for
// windowed queries, or stream live deltas by passing Subscribe to the
// serve layer's SSE handler (ServeConfig / NewSEVDaemon side).
type Timeline = timeline.Timeline

// TimelineSample is one time-series point: the sample instant, the
// series' value, and its column ordinal.
type TimelineSample = timeline.Sample

// TimelineSampler reads a fixed set of registry series on each tick and
// records the ones that changed into a timeline lane; StartWall runs it
// on a wall-clock ticker for servers.
type TimelineSampler = timeline.Sampler

// NewTimeline returns an empty timeline sampling on the given sim-time
// cadence in hours; cadence <= 0 selects the default (24, one grid point
// per simulated day).
func NewTimeline(cadence float64) *Timeline { return timeline.New(cadence) }

// NewTimelineSampler builds a sampler over reg feeding a new lane of t,
// tracking the named counter and gauge series.
func NewTimelineSampler(t *Timeline, lane string, reg *MetricsRegistry, counters, gauges []string) *TimelineSampler {
	return timeline.NewSampler(t, lane, reg, counters, gauges)
}

// SweepStatus is the live campaign introspection table: a lock-free
// per-run progress grid updated by the sweep workers. Set one on
// SweepConfig.Status and serve SweepStatus.Handler (endpoints /campaign,
// /campaign/events, /journal, /metrics/history) to watch a campaign run.
// A nil *SweepStatus is a valid no-op.
type SweepStatus = sweep.Status

// SweepCampaignStatus is one point-in-time campaign snapshot: aggregate
// progress, live cross-run bands, and the per-run grid with z-score
// straggler flags.
type SweepCampaignStatus = sweep.CampaignStatus

// SweepRunStatus is one run's row in a campaign snapshot.
type SweepRunStatus = sweep.RunStatus

// NewSweepStatus returns an empty status table for SweepConfig.Status.
func NewSweepStatus() *SweepStatus { return sweep.NewStatus() }

// NewSimLogHandler returns a log/slog handler writing structured records
// (format "text" or "json") that carry both clocks: slog's wall-clock
// timestamp plus a sim_hours attribute taken from the record itself or,
// absent that, from the registry's des_sim_hours gauge. Pass
// reg.Gauge("des_sim_hours") as sim (or nil to disable the fallback).
func NewSimLogHandler(w io.Writer, format string, level slog.Leveler, sim *obs.Gauge) (slog.Handler, error) {
	return obs.NewSimHandler(w, format, level, sim)
}

// ParseLogLevel maps "debug", "info", "warn", or "error" to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) { return obs.ParseLogLevel(s) }
