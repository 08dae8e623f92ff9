// Package dcnr (Data Center Network Reliability) reproduces the
// measurement study "A Large Scale Study of Data Center Network
// Reliability" (Meza, Xu, Veeraraghavan, Mutlu — IMC 2018) as a simulation
// and analysis library.
//
// The paper analyzed seven years of Facebook's intra-data-center
// service-level events (SEVs) and eighteen months of inter-data-center
// fiber repair tickets. Those datasets are proprietary, so this library
// ships a calibrated generative substitute for each:
//
//   - SimulateIntraDC runs a discrete-event simulation of a growing device
//     fleet (cluster and fabric network designs) under fault injection,
//     automated remediation, and topology-derived service impact,
//     producing a SEV dataset.
//   - SimulateBackbone generates a backbone of edges, vendors, and fiber
//     links, simulates link failures and fiber cuts, and round-trips the
//     resulting repair tickets through the vendor-notification pipeline.
//   - Sweep fans a grid of such runs — seed × scale × scenario — across a
//     bounded worker pool and aggregates the paper's key statistics into
//     cross-run mean/p5/p95 bands.
//
// Every simulation entry point takes a config whose Validate method
// normalizes defaults and rejects impossible parameters, and whose
// embedded Observe struct carries the shared observability wiring
// (Metrics, Trace, Health, Logger, Journal, Timeline; a field an entry
// point does not read is rejected). Analysis re-derives every table and
// figure of the paper from the generated raw records — see IntraAnalysis
// and InterAnalysis. cmd/repro prints each experiment; EXPERIMENTS.md
// records paper-vs-measured values.
package dcnr

import (
	"dcnr/internal/core"
	"dcnr/internal/remediation"
	"dcnr/internal/sim"
	"dcnr/internal/sweep"
	"dcnr/internal/topology"
)

// Version identifies the library release.
const Version = "1.1.0"

// SimulateIntraDC runs the intra-data-center simulation and returns the
// dataset with analysis attached. The config is validated first (see
// IntraConfig.Validate); an invalid config returns an error before any
// simulation work happens.
func SimulateIntraDC(cfg IntraConfig) (*IntraResult, error) {
	return sim.IntraDC(cfg)
}

// SimulateBackbone generates a backbone per cfg, simulates its failure
// processes over the observation window, and round-trips the repair
// tickets through the generation→parse→pair pipeline, exactly as the
// study's data flowed (§4.3.2). The config is validated first (see
// BackboneConfig.Validate).
func SimulateBackbone(cfg BackboneConfig) (*BackboneResult, error) {
	return sim.Backbone(cfg)
}

// Sweep runs a scenario-sweep campaign: every (scenario, scale, seed) cell
// of the grid as an isolated simulation run across a bounded worker pool,
// with per-run statistics streamed to cfg.Results as JSONL and aggregated
// into cross-run mean/p5/p95 bands. The same grid yields a byte-identical
// report (Result.WriteReport) at any worker count.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	return sweep.Run(cfg)
}

// RunLimit runs n independent analysis tasks across a bounded pool of at
// most workers goroutines and waits for all of them (workers <= 0 means one
// per CPU, and the pool never exceeds GOMAXPROCS). Every task runs even
// when an earlier one fails; the returned error is the failing task with
// the lowest index, so the outcome is deterministic under concurrency.
// cmd/repro uses it to regenerate all
// tables and figures in parallel; it fits any fan-out whose tasks are
// independent, such as sweeping seeds or scales.
func RunLimit(workers, n int, task func(i int) error) error {
	return core.RunLimit(workers, n, task)
}

// RunLimitTraced is RunLimit with per-task telemetry: each task records a
// wall-clock span on tr under category cat, named by name(i) (the task
// index when name is nil), with one trace lane per pool worker. A nil tr
// records nothing, so callers can thread an optional tracer straight
// through.
func RunLimitTraced(workers, n int, tr *Tracer, cat string, name func(i int) string, task func(i int) error) error {
	return core.RunLimitTraced(workers, n, tr, cat, name, task)
}

// RemediationSupported reports whether automated remediation covers the
// device type (§4.1.2: RSWs, FSWs, and some Core devices).
func RemediationSupported(t DeviceType) bool { return remediation.Supported(t) }

// ParseDeviceName recovers a device's type from its name prefix, the
// classification rule of §4.3.1.
func ParseDeviceName(name string) (DeviceType, error) {
	return topology.ParseDeviceName(name)
}
