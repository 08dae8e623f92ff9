package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dcnr"
	"dcnr/internal/backbone"
	"dcnr/internal/core"
	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/sev"
	"dcnr/internal/tickets"
)

// scenarios are dcsweep's standard campaign: the baseline, the §5.6
// no-remediation ablation, which escalates every fault into a SEV, and a
// 5× burn drill in 2014. Their runs cost about 1×, 1.5× and 3×, so the
// median run is always a burn drill's rather than the midpoint of two
// modes. A config with a gridYear simulates that year alone.
func (c config) scenarios() []dcnr.SweepScenario {
	scs := dcnr.DefaultSweepScenarios()
	for i := range scs {
		scs[i].FromYear, scs[i].ToYear = c.gridYear, c.gridYear
	}
	return scs
}

// sweepConfig is the campaign grid: the seeds at one scale, every
// scenario, each run with its backbone leg.
func (c config) sweepConfig(seeds []uint64, trace *obs.Tracer) dcnr.SweepConfig {
	return dcnr.SweepConfig{
		Observe:   dcnr.Observe{Trace: trace},
		Seeds:     seeds,
		Scales:    []int{c.gridScale},
		Scenarios: c.scenarios(),
		Workers:   c.senders,
		Backbone:  !c.gridNoBackbone,
	}
}

// runCampaign sweeps the grid with dcnr.Sweep again and again until the
// measured time is spent, at least twice (so the report can be compared
// across repeats) and for at least minOps cells (so the median cell has
// ten beyond it). One op is one grid cell; its latency is the cell's run
// span, which Sweep records on the campaign tracer.
func runCampaign(cfg config, tr *tracer, r *result) error {
	var seeds []uint64
	setup, err := cfg.timeSetups(func() (func(), error) {
		// Every run's backbone leg is simulated at its grid seed, so the
		// grid takes seeds whose backbones are of typical size. The rest
		// is the grid's seed-independent inputs: the validated campaign,
		// the fleet model at the grid's scale and the representative
		// topology every cell's service-impact model is built on.
		var err error
		if seeds, err = typicalBackboneSeeds(cfg.seed, cfg.gridScale, cfg.gridSeeds); err != nil {
			return nil, err
		}
		sc := cfg.sweepConfig(seeds, nil)
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		fleet.New(cfg.gridScale)
		_, err = fleet.RepresentativeTopology()
		return nil, err
	})
	if err != nil {
		return err
	}
	r.Metrics["setup_s"] = setup
	r.Info["grid_seeds"] = fmt.Sprint(seeds)
	if tr != nil {
		return campaignTraced(cfg, seeds, tr, r)
	}

	ph := beginPhase()
	var (
		cells   []float64
		elapsed time.Duration
		reports []any
	)
	for grid := 0; ; grid++ {
		spans := obs.NewTracer()
		start := time.Now()
		res, err := dcnr.Sweep(cfg.sweepConfig(seeds, spans))
		took := time.Since(start)
		elapsed += took
		if err != nil {
			return err
		}
		n := cfg.gridSeeds * len(cfg.scenarios())
		r.Attempted += n
		var buf bytes.Buffer
		var report any
		err = res.WriteReport(&buf)
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &report)
		}
		if err != nil {
			return err
		}
		reports = append(reports, report)
		r.check(len(res.Runs) == n, "sweep returned %d runs, want %d", len(res.Runs), n)
		for _, e := range spans.Events() {
			if e.Phase == "X" && e.Cat == "sweep" {
				cells = append(cells, e.Dur/1000)
			}
		}
		if grid >= 1 && len(cells) >= cfg.minOps && elapsed+took/2 >= cfg.measure() {
			break
		}
	}
	ph.end(r, len(cells))
	r.Metrics["throughput_ops_s"] = float64(len(cells)) / elapsed.Seconds()
	if err := r.latencies(cells); err != nil {
		return err
	}

	for i, rep := range reports[1:] {
		r.check(sameValue(rep, reports[0]), "sweep report of grid %d differs from grid 0", i+1)
	}
	r.Info["digest"] = digestOf(reports[0])
	if cfg.isReference() {
		r.check(r.Info["digest"] == campaignDigest, "sweep report digest %s, reference %s", r.Info["digest"], campaignDigest)
	}
	return nil
}

// campaignTraced runs the grid once, every cell decomposed into the calls
// sim.IntraDC and sim.Backbone make — fleet.New, faults.Driver.Run,
// core.NewIntraAnalysis, backbone.Build and Simulate, tickets.Generate,
// the ticket round trip, core.NewInterAnalysis — plus the analyses the
// sweep reduces each run to, each call a span. A registry handed to each
// cell's driver counts DES events and remediation outcomes. These cells
// run on dcnr.RunLimit rather than inside dcnr.Sweep, so campaign's
// tracing overhead also holds the difference between the two pipelines.
func campaignTraced(cfg config, seeds []uint64, tr *tracer, r *result) error {
	type cell struct {
		scenario dcnr.SweepScenario
		seed     uint64
	}
	var cells []cell
	for _, sc := range cfg.scenarios() {
		for _, seed := range seeds {
			cells = append(cells, cell{sc, seed})
		}
	}
	from, to := fleet.FirstYear, fleet.LastYear
	if cfg.gridYear != 0 {
		from, to = cfg.gridYear, cfg.gridYear
	}
	counters := []string{"des_events_fired_total", "remediation_submitted_total",
		"remediation_escalated_total", "remediation_repaired_total"}
	var (
		mu      sync.Mutex
		totals  = map[string]time.Duration{} // layer metric → time over all cells
		counts  = map[string]int64{}         // registry counter → sum over all cells
		cellSum time.Duration
		notices int
	)
	ph := beginPhase()
	start := time.Now()
	err := dcnr.RunLimit(cfg.senders, len(cells), func(i int) error {
		c := cells[i]
		lane, op := 1+i%cfg.senders, int64(i)
		cellStart := time.Now()
		id := tr.newID()
		times := map[string]time.Duration{}
		// step times one call as a span of layer under the cell; metric,
		// when set, is the layer metric its time counts toward.
		step := func(metric, layer, name string, fn func() error) error {
			var err error
			d := tr.call(lane, layer, name, op, id, func() { err = fn() })
			if metric != "" {
				times[metric] += d
			}
			return err
		}
		var (
			fl    *fleet.Model
			store *sev.Store
			intra *core.IntraAnalysis
			topo  *backbone.Topology
			downs []backbone.LinkDown
			nts   []tickets.Notice
			inter *core.InterAnalysis
		)
		_ = step("fleet.build_ms", "fleet", "fleet.New", func() error { fl = fleet.New(cfg.gridScale); return nil })
		driver, err := faults.NewDriver(fl, c.seed)
		if err != nil {
			return err
		}
		driver.Engine.SetEnabled(!c.scenario.DisableRemediation)
		driver.ElevateYear, driver.ElevateFactor = c.scenario.ElevateYear, c.scenario.ElevateFactor
		reg := obs.NewRegistry()
		driver.Observe(observe.Observe{Metrics: reg})
		bcfg := backbone.DefaultConfig()
		bcfg.Seed = c.seed
		bcfg.Edges *= cfg.gridScale
		if err := bcfg.Validate(); err != nil {
			return err
		}
		coll := tickets.NewCollector()
		coll.WindowHours = bcfg.WindowHours()
		for _, s := range []struct {
			metric, layer, name string
			fn                  func() error
		}{
			{"faults.run_ms", "faults", "faults.Driver.Run", func() (err error) {
				store, err = driver.Run(from, to)
				return err
			}},
			{"core.intra_build_ms", "core", "core.NewIntraAnalysis", func() error {
				intra = core.NewIntraAnalysis(store, fl)
				return nil
			}},
			{"backbone.build_ms", "backbone", "backbone.Build", func() (err error) {
				topo, err = backbone.Build(bcfg)
				return err
			}},
			{"backbone.simulate_ms", "backbone", "backbone.Topology.Simulate", func() (err error) {
				downs, err = topo.Simulate(bcfg)
				return err
			}},
			{"tickets.generate_ms", "tickets", "tickets.Generate", func() error {
				nts = tickets.Generate(topo, downs)
				return nil
			}},
			{"tickets.roundtrip_ms", "tickets", "tickets.roundtrip", func() error {
				for _, n := range nts {
					parsed, err := tickets.Parse(n.Format())
					if err == nil {
						err = coll.Ingest(parsed)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}},
			{"core.inter_build_ms", "core", "core.NewInterAnalysis", func() (err error) {
				inter, err = core.NewInterAnalysis(topo, coll.Downtimes(), coll.WindowHours)
				return err
			}},
			{"", "core", "core.sweep_stats", func() error {
				intra.IncidentRate(fleet.LastYear)
				intra.RootCauseDistribution()
				intra.MTBI(fleet.LastYear)
				intra.P75IRTOverall()
				inter.EdgeAvailability()
				inter.EdgeMTBF()
				inter.EdgeMTTR()
				return nil
			}},
		} {
			if err := step(s.metric, s.layer, s.name, s.fn); err != nil {
				return err
			}
		}
		took := time.Since(cellStart)
		tr.recordAs(id, lane, "sweep", fmt.Sprintf("cell %s/seed%d", c.scenario.Name, c.seed), op, 0, cellStart, took)

		snap := reg.Snapshot()
		mu.Lock()
		defer mu.Unlock()
		for m, d := range times {
			totals[m] += d
		}
		for _, name := range counters {
			counts[name] += snap.Counters[name]
		}
		cellSum += took
		notices += len(nts)
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	r.Attempted += len(cells)
	ph.end(r, len(cells))
	n := float64(len(cells))
	r.Metrics["throughput_ops_s"] = n / wall.Seconds()
	for m, d := range totals {
		r.Layers[m] = durMS(d) / n
	}
	events, submitted := counts["des_events_fired_total"], counts["remediation_submitted_total"]
	r.Layers["des.events"] = float64(events)
	if events > 0 {
		r.Layers["des.ns_per_event"] = float64(totals["faults.run_ms"].Nanoseconds()) / float64(events)
	}
	r.Layers["remediation.submitted"] = float64(submitted)
	r.Layers["remediation.escalated"] = float64(counts["remediation_escalated_total"])
	if submitted > 0 {
		r.Layers["remediation.repair_ratio"] = float64(counts["remediation_repaired_total"]) / float64(submitted)
	}
	r.Layers["tickets.notices"] = float64(notices)
	// For sweep.parallel_efficiency, which the untraced runs' wall time
	// completes (see bench.summarize).
	r.Info["serial_cell_s"] = cellSum.Seconds() / n
	r.Info["workers"] = float64(min(cfg.senders, len(cells)))
	return nil
}
