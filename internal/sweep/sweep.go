// Package sweep is the scenario-sweep campaign engine: it fans a grid of
// simulation runs — seed × scale × scenario — across a bounded worker
// pool, streams per-run summary statistics out as JSONL, and aggregates
// the paper's key statistics (per-device-type incident rates, root-cause
// mix, MTBF, resolution times, repair ratios, edge availability) into
// cross-run mean/p5/p95 bands.
//
// The paper's every headline number is a point estimate from one observed
// history; a sweep quantifies the run-to-run variance a reproduction
// should report alongside it. Design constraints:
//
//   - Bounded memory. A run's SEV store is reduced to a small RunStats
//     record on the worker that produced it and then dropped, so a
//     100-run campaign never holds 100 stores.
//   - Full isolation. Every run builds its own simulator, fleet, and
//     seeded RNG source (simrand.NewSource(seed) per driver), plus its
//     own metrics registry when the campaign is instrumented — workers
//     share nothing but the result slice.
//   - One backbone per (seed, scale). A backbone history depends on the
//     seed and the scale only, never on the scenario, so a campaign with
//     Backbone set first simulates each unique (seed, scale) leg once, as
//     its own pool task with its own registry, and every scenario's run
//     at that pair shares the leg's reduced statistics.
//   - Deterministic output. Runs are expanded, numbered, streamed, and
//     aggregated in grid order regardless of which worker finishes first,
//     so the same grid yields byte-identical reports at any worker count.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"dcnr/internal/backbone"
	"dcnr/internal/core"
	"dcnr/internal/faults"
	"dcnr/internal/obs"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/observe"
	"dcnr/internal/sim"
)

// Scenario is one named variant of the intra-DC simulation: the baseline,
// the §5.6 no-remediation ablation, an -elevate-* burn drill, or any year
// slice of the study period.
type Scenario struct {
	// Name labels the scenario in results and reports; names must be
	// unique within a campaign.
	Name string `json:"name"`
	// DisableRemediation turns off the automated repair engine (§5.6).
	DisableRemediation bool `json:"disable_remediation,omitempty"`
	// ElevateYear and ElevateFactor (> 1) multiply one year's fault
	// arrival rate — the burn-drill anomaly.
	ElevateYear   int     `json:"elevate_year,omitempty"`
	ElevateFactor float64 `json:"elevate_factor,omitempty"`
	// FromYear and ToYear bound the simulated years; zero values mean the
	// full study period.
	FromYear int `json:"from_year,omitempty"`
	ToYear   int `json:"to_year,omitempty"`
}

// DefaultScenarios returns the standard campaign: the baseline study
// period, the §5.6 no-remediation ablation, and a 5× burn drill in 2014.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "baseline"},
		{Name: "no-remediation", DisableRemediation: true},
		{Name: "elevate-2014x5", ElevateYear: 2014, ElevateFactor: 5},
	}
}

// Config parameterizes a sweep campaign.
type Config struct {
	// Observe bundles the campaign-level observability wiring. Metrics,
	// when set, turns on Result.Metrics, the merge of every run's private
	// registry (the campaign registry itself receives nothing); Trace
	// records one span per run (category "sweep") and one per backbone leg
	// (category "sweep.backbone"), with a lane per pool worker; Logger
	// gets one progress record per completed run. Validate rejects
	// Observe.Health: runs have independent simulation clocks, so a
	// shared health engine would interleave unrelated histories;
	// instrument single runs instead. It also rejects Observe.Journal
	// and Observe.Timeline: every run records into its own, streamed
	// through the Journal and Timeline writers below.
	observe.Observe
	// Seeds are the RNG roots to sweep. Every (scenario, scale, seed)
	// cell becomes one run; a campaign needs at least one seed.
	Seeds []uint64
	// Scales are the fleet scales to sweep. Empty means [1].
	Scales []int
	// Scenarios are the simulation variants to sweep. Empty means
	// [{Name: "baseline"}].
	Scenarios []Scenario
	// Workers bounds the worker pool; <= 0 means one per CPU. Validate
	// clamps it to runtime.GOMAXPROCS(0): each run is CPU-bound, so
	// oversubscribing the machine only adds scheduler churn (measured ~12%
	// slower with 8 workers on a 1-CPU box) without changing output.
	Workers int
	// Backbone, when true, adds an inter-DC leg to every run: a backbone
	// simulation at the run's seed (edges scaled by the run's scale)
	// whose edge availability and MTBF/MTTR medians join the run's
	// statistics. Each unique (seed, scale) leg is simulated once, before
	// the intra-DC runs, and shared by every scenario's run at that pair;
	// with Observe.Metrics set, its counters are merged into
	// Result.Metrics once, and Status's per-run rows never include it.
	Backbone bool
	// Results, when non-nil, receives one JSON line per completed run
	// (a RunStats record), streamed in run order as soon as each run's
	// predecessor lines are flushed.
	Results io.Writer
	// Journal, when non-nil, receives every run's causal incident journal
	// as JSONL in run order: a header line per run ({"run":N,...}) followed
	// by the run's records. Like Results, the stream is byte-identical at
	// any worker count.
	Journal io.Writer
	// Timeline, when non-nil, receives every run's metric timeline as
	// JSONL in run order: a header line per run ({"run":N,...}) followed
	// by the run's samples on the sim-time cadence grid. Like Results,
	// the stream is byte-identical at any worker count.
	Timeline io.Writer
	// Status, when non-nil, is updated live as runs start and finish; serve
	// Status.Handler to watch the campaign from outside. Status only adds
	// progress accounting — sweep_report.json is unchanged by it.
	Status *Status
}

// Validate normalizes the campaign in place — default scales and
// scenarios, scenario year bounds resolved to the study period — and
// rejects what cannot run: no seeds, non-positive scales, duplicate or
// empty scenario names, a scenario whose own simulation config fails
// sim.IntraConfig.Validate, or an Observe sink the campaign never reads.
func (c *Config) Validate() error {
	switch {
	case len(c.Seeds) == 0:
		return fmt.Errorf("sweep: no seeds configured")
	case c.Observe.Health != nil:
		return fmt.Errorf("sweep: Observe.Health is not read by a campaign; instrument single runs instead")
	case c.Observe.Journal != nil:
		return fmt.Errorf("sweep: Observe.Journal is not read by a campaign; set Config.Journal")
	case c.Observe.Timeline != nil:
		return fmt.Errorf("sweep: Observe.Timeline is not read by a campaign; set Config.Timeline")
	}
	if max := runtime.GOMAXPROCS(0); c.Workers > max {
		c.Workers = max
	}
	if len(c.Scales) == 0 {
		c.Scales = []int{1}
	}
	for _, s := range c.Scales {
		if s <= 0 {
			return fmt.Errorf("sweep: Scale must be positive, got %d", s)
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []Scenario{{Name: "baseline"}}
	}
	seen := make(map[string]bool, len(c.Scenarios))
	for i := range c.Scenarios {
		sc := &c.Scenarios[i]
		if sc.Name == "" {
			return fmt.Errorf("sweep: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("sweep: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		// Normalize and check through the simulation config itself, so a
		// sweep rejects exactly what a single run would.
		probe := sc.intraConfig(c.Seeds[0], c.Scales[0])
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
		}
		sc.FromYear, sc.ToYear = probe.FromYear, probe.ToYear
	}
	return nil
}

// intraConfig builds the simulation config for one grid cell.
func (s Scenario) intraConfig(seed uint64, scale int) sim.IntraConfig {
	return sim.IntraConfig{
		Seed:               seed,
		Scale:              scale,
		FromYear:           s.FromYear,
		ToYear:             s.ToYear,
		DisableRemediation: s.DisableRemediation,
		ElevateYear:        s.ElevateYear,
		ElevateFactor:      s.ElevateFactor,
	}
}

// runSpec is one expanded grid cell.
type runSpec struct {
	run      int
	scenario Scenario
	seed     uint64
	scale    int
}

// expand enumerates the grid in deterministic order: scenarios outermost,
// then scales, then seeds — so all of a scenario's runs are numbered
// contiguously and paired-seed comparisons line up across scenarios.
func (c *Config) expand() []runSpec {
	specs := make([]runSpec, 0, len(c.Scenarios)*len(c.Scales)*len(c.Seeds))
	for _, sc := range c.Scenarios {
		for _, scale := range c.Scales {
			for _, seed := range c.Seeds {
				specs = append(specs, runSpec{run: len(specs), scenario: sc, seed: seed, scale: scale})
			}
		}
	}
	return specs
}

// legKey is one backbone leg: a backbone history depends on the run's
// seed and scale only, so the runs of every scenario at a pair share it.
type legKey struct {
	seed  uint64
	scale int
}

// backboneLegs lists the unique legs of specs in first-use order, and for
// each run the index of its leg.
func backboneLegs(specs []runSpec) (legs []legKey, legOf []int) {
	index := make(map[legKey]int)
	legOf = make([]int, len(specs))
	for i, s := range specs {
		k := legKey{s.seed, s.scale}
		j, ok := index[k]
		if !ok {
			j = len(legs)
			index[k] = j
			legs = append(legs, k)
		}
		legOf[i] = j
	}
	return legs, legOf
}

// runLeg simulates one backbone leg, its telemetry on reg, and reduces it
// to the statistics its runs report.
func runLeg(leg legKey, reg *obs.Registry) (edgeStats, error) {
	bcfg := backbone.DefaultConfig()
	bcfg.Seed = leg.seed
	bcfg.Edges *= leg.scale
	bcfg.Observe = observe.Observe{Metrics: reg}
	bres, err := sim.Backbone(bcfg)
	if err != nil {
		return edgeStats{}, fmt.Errorf("sweep: backbone (seed %d scale %d): %w", leg.seed, leg.scale, err)
	}
	return backboneStats(bres.Analysis), nil
}

// Result is a completed campaign: the aggregated report, every per-run
// record, and the merged telemetry of all instrumented runs.
type Result struct {
	// Report is the cross-run aggregation, ready for WriteReport.
	Report Report
	// Runs holds one RunStats per grid cell, in run order.
	Runs []RunStats
	// Metrics is the merge of every run's private registry (and of every
	// backbone leg's), made when Observe.Metrics is set. Zero when it is
	// not.
	Metrics obs.Snapshot
}

// WriteReport writes the campaign report as deterministically-ordered,
// indented JSON: the same grid produces byte-identical output at any
// worker count.
func (r *Result) WriteReport(w io.Writer) error {
	data, err := json.MarshalIndent(&r.Report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Run executes the campaign: every backbone leg (when cfg.Backbone is set)
// and then every grid cell across the worker pool, the JSONL stream to
// cfg.Results, and the final aggregation. A failed backbone leg ends the
// campaign before any run starts. Otherwise the returned error is the
// failing run with the lowest index (every run is attempted even when an
// earlier one fails, matching core.RunLimit).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	specs := cfg.expand()
	o := cfg.Observe

	stream := newOrderedWriter(cfg.Results, len(specs))
	jstream := newOrderedWriter(cfg.Journal, len(specs))
	tstream := newOrderedWriter(cfg.Timeline, len(specs))
	// A journal stream or a live status table both need per-run journals;
	// either alone turns journaling on for every run.
	journaling := cfg.Journal != nil || cfg.Status != nil
	// A private registry per run: for campaign-level metric merging, for
	// the timeline sampler's series, and for Status's per-run resource
	// attribution (events processed). Any of the three turns it on.
	instrument := o.Metrics != nil || cfg.Timeline != nil || cfg.Status != nil
	cfg.Status.begin(specs)
	results := make([]RunStats, len(specs))
	var (
		mergedMu sync.Mutex
		merged   obs.Snapshot
	)
	// merge folds one private registry into Result.Metrics. Only a caller
	// who asked for metrics gets campaign-level merging; a registry made
	// just for attribution or timeline sampling stays private to its run.
	merge := func(snap obs.Snapshot) error {
		if o.Metrics == nil {
			return nil
		}
		mergedMu.Lock()
		defer mergedMu.Unlock()
		return merged.Merge(snap)
	}

	var (
		legs  []legKey
		legOf []int
		edges []edgeStats
	)
	if cfg.Backbone {
		legs, legOf = backboneLegs(specs)
		edges = make([]edgeStats, len(legs))
		err := core.RunLimitTraced(cfg.Workers, len(legs), o.Trace, "sweep.backbone",
			func(k int) string { return fmt.Sprintf("backbone/seed%d/x%d", legs[k].seed, legs[k].scale) },
			func(k int) error {
				var reg *obs.Registry
				if o.Metrics != nil {
					reg = obs.NewRegistry()
				}
				var err error
				if edges[k], err = runLeg(legs[k], reg); err != nil {
					return err
				}
				if reg != nil {
					if err := merge(reg.Snapshot()); err != nil {
						return fmt.Errorf("sweep: backbone (seed %d scale %d): merging metrics: %w", legs[k].seed, legs[k].scale, err)
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
	}

	runOne := func(i int) error {
		spec := specs[i]
		probe := beginProbe()

		// Per-run isolated telemetry: a private registry per run (when
		// the campaign is instrumented at all), merged after the run so
		// concurrent runs never share a counter.
		var reg *obs.Registry
		if instrument {
			reg = obs.NewRegistry()
		}
		icfg := spec.scenario.intraConfig(spec.seed, spec.scale)
		icfg.Observe = observe.Observe{Metrics: reg}
		if journaling {
			icfg.Observe.Journal = faults.NewJournal()
		}
		if cfg.Timeline != nil {
			icfg.Observe.Timeline = timeline.New()
		}
		res, err := sim.IntraDC(icfg)
		if err != nil {
			return fmt.Errorf("sweep: run %d (%s seed %d scale %d): %w",
				spec.run, spec.scenario.Name, spec.seed, spec.scale, err)
		}
		stats := intraStats(spec, res)
		res = nil // the SEV store is reduced; let the worker drop it
		if cfg.Backbone {
			addBackboneStats(&stats, edges[legOf[i]])
		}

		var events int64
		if reg != nil {
			snap := reg.Snapshot()
			events = snap.Counters["des_events_fired_total"]
			if err := merge(snap); err != nil {
				return fmt.Errorf("sweep: run %d: merging metrics: %w", spec.run, err)
			}
		}
		results[i] = stats
		if err := stream.write(i, &stats); err != nil {
			return fmt.Errorf("sweep: run %d: streaming result: %w", spec.run, err)
		}
		if j := icfg.Observe.Journal; j != nil {
			// One index serves both the JSONL chunk and the summary; the
			// journal's blocks are concatenated into one record array once.
			x := j.Index()
			if cfg.Journal != nil {
				// Serialize the run's journal as one chunk — a header line
				// naming the run, then the records — streamed in run order.
				var buf bytes.Buffer
				fmt.Fprintf(&buf, "{\"run\":%d,\"scenario\":%q,\"seed\":%d,\"scale\":%d,\"records\":%d}\n",
					spec.run, spec.scenario.Name, spec.seed, spec.scale, x.Len())
				if err := x.WriteJSONL(&buf); err != nil {
					return fmt.Errorf("sweep: run %d: serializing journal: %w", spec.run, err)
				}
				if err := jstream.writeRaw(i, buf.Bytes()); err != nil {
					return fmt.Errorf("sweep: run %d: streaming journal: %w", spec.run, err)
				}
			}
			cfg.Status.setJournal(i, x.Summary())
		}
		if tl := icfg.Observe.Timeline; tl != nil && cfg.Timeline != nil {
			// Serialize the run's timeline as one chunk — a header line
			// naming the run, then the samples — streamed in run order.
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "{\"run\":%d,\"scenario\":%q,\"seed\":%d,\"scale\":%d,\"samples\":%d}\n",
				spec.run, spec.scenario.Name, spec.seed, spec.scale, tl.Len())
			if err := tl.WriteJSONL(&buf); err != nil {
				return fmt.Errorf("sweep: run %d: serializing timeline: %w", spec.run, err)
			}
			if err := tstream.writeRaw(i, buf.Bytes()); err != nil {
				return fmt.Errorf("sweep: run %d: streaming timeline: %w", spec.run, err)
			}
		}
		simHours := float64(spec.scenario.ToYear-spec.scenario.FromYear+1) * hoursPerYear
		cfg.Status.done(i, &stats, probe.end(events, simHours))
		if o.Logger != nil {
			o.Logger.Info("sweep run complete",
				"run", spec.run, "of", len(specs),
				"scenario", spec.scenario.Name,
				"seed", spec.seed, "scale", spec.scale,
				"faults", stats.Faults, "incidents", stats.Incidents)
		}
		return nil
	}
	task := func(i int) error {
		cfg.Status.start(i)
		if err := runOne(i); err != nil {
			cfg.Status.fail(i)
			return err
		}
		return nil
	}

	err := core.RunLimitTraced(cfg.Workers, len(specs), o.Trace, "sweep",
		func(i int) string {
			s := specs[i]
			return fmt.Sprintf("%s/seed%d/x%d", s.scenario.Name, s.seed, s.scale)
		}, task)
	// The stream errors join the run error instead of being masked by it:
	// a campaign that both lost a run and truncated its JSONL reports both,
	// and a clean-looking abort can no longer hide a broken stream.
	if err = errors.Join(err, flushErrs(stream, jstream, tstream)); err != nil {
		return nil, err
	}
	return &Result{
		Report:  aggregate(cfg, results),
		Runs:    results,
		Metrics: merged,
	}, nil
}

// flushErrs collects the sticky stream errors from the results, journal,
// and timeline streams, labeled by stream.
func flushErrs(stream, jstream, tstream *orderedWriter) error {
	var errs []error
	if err := stream.flushErr(); err != nil {
		errs = append(errs, fmt.Errorf("sweep: streaming results: %w", err))
	}
	if err := jstream.flushErr(); err != nil {
		errs = append(errs, fmt.Errorf("sweep: streaming journal: %w", err))
	}
	if err := tstream.flushErr(); err != nil {
		errs = append(errs, fmt.Errorf("sweep: streaming timeline: %w", err))
	}
	return errors.Join(errs...)
}

// orderedWriter streams JSON lines in index order no matter the completion
// order: line i is held until lines 0..i-1 have been written, so the JSONL
// stream is deterministic under concurrency while only out-of-order
// completions are buffered.
type orderedWriter struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	pending map[int][]byte
	err     error
}

func newOrderedWriter(w io.Writer, n int) *orderedWriter {
	return &orderedWriter{w: w, pending: make(map[int][]byte, n/8+1)}
}

// write enqueues record i and flushes every line that is now contiguous.
// The first underlying write error is sticky and returned to every later
// caller, so one broken pipe fails the campaign instead of silently
// truncating the stream.
func (ow *orderedWriter) write(i int, record any) error {
	if ow.w == nil {
		return nil
	}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	return ow.writeRaw(i, append(line, '\n'))
}

// writeRaw enqueues a pre-serialized chunk for index i — one line or many —
// with the same ordering and sticky-error contract as write. The chunk is
// retained until flushed; callers must not reuse it.
func (ow *orderedWriter) writeRaw(i int, chunk []byte) error {
	if ow.w == nil {
		return nil
	}
	ow.mu.Lock()
	defer ow.mu.Unlock()
	if ow.err != nil {
		return ow.err
	}
	ow.pending[i] = chunk
	for {
		buf, ok := ow.pending[ow.next]
		if !ok {
			return nil
		}
		delete(ow.pending, ow.next)
		if _, err := ow.w.Write(buf); err != nil {
			ow.err = err
			return err
		}
		ow.next++
	}
}

// flushErr reports the sticky stream error, if any.
func (ow *orderedWriter) flushErr() error {
	ow.mu.Lock()
	defer ow.mu.Unlock()
	return ow.err
}
