package main

import (
	"fmt"
	"reflect"
	"time"

	"dcnr"
)

// paperData is the pair of datasets every artifact is computed from.
type paperData struct {
	intra *dcnr.IntraResult
	inter *dcnr.BackboneResult
}

// artifactFns regenerate each paper artifact (in the order of artifacts)
// with the same library calls cmd/repro makes, returning the values it
// renders.
var artifactFns = []func(d *paperData) any{
	func(d *paperData) any { // table1
		out := make([]any, 0, 3)
		for _, dt := range []dcnr.DeviceType{dcnr.Core, dcnr.FSW, dcnr.RSW} {
			s := d.intra.RemediationStats[dt]
			out = append(out, []float64{s.RepairRatio(), s.AvgPriority(), s.AvgWaitHours(), s.AvgRepairSeconds()})
		}
		return out
	},
	func(d *paperData) any { return d.intra.Analysis.RootCauseDistribution() }, // table2
	func(d *paperData) any { // table3
		out := make([]any, 0, len(dcnr.Severities))
		for _, s := range dcnr.Severities {
			reports := d.intra.Store.Query().Year(2017).Severity(s).Reports()
			example := ""
			if len(reports) > 0 {
				example = reports[0].Title + " — " + reports[0].Impact
			}
			out = append(out, []any{len(reports), example})
		}
		return out
	},
	func(d *paperData) any { return d.inter.Analysis.ByContinent() }, // table4
	func(d *paperData) any { return d.intra.Analysis.RootCauseByDevice() },
	func(d *paperData) any { return perYear(d, d.intra.Analysis.IncidentRate) },
	func(d *paperData) any { return d.intra.Analysis.SeverityBreakdown(2017) },
	func(d *paperData) any { return d.intra.Analysis.SevRatePerDevice() },
	func(d *paperData) any { return d.intra.Analysis.SwitchesVsEmployees() },
	func(d *paperData) any { return d.intra.Analysis.IncidentFractions() },
	func(d *paperData) any { return d.intra.Analysis.NormalizedIncidents(2017) },
	func(d *paperData) any { return d.intra.Analysis.DesignIncidents(2017) },
	func(d *paperData) any { return d.intra.Analysis.DesignRate() },
	func(d *paperData) any { return d.intra.Analysis.PopulationBreakdown() },
	func(d *paperData) any { // fig12
		a := d.intra.Analysis
		return []any{perYear(d, a.MTBI), a.DesignMTBI(2017, dcnr.DesignFabric), a.DesignMTBI(2017, dcnr.DesignCluster)}
	},
	func(d *paperData) any { return perYear(d, d.intra.Analysis.P75IRT) },
	func(d *paperData) any { return d.intra.Analysis.IRTvsScale() },
	func(d *paperData) any { return curve(d.inter.Analysis.EdgeMTBF(), true) },
	func(d *paperData) any { return curve(d.inter.Analysis.EdgeMTTR(), true) },
	func(d *paperData) any { return curve(d.inter.Analysis.VendorMTBF(), false) },
	func(d *paperData) any { return curve(d.inter.Analysis.VendorMTTR(), true) },
}

// perYear evaluates a per-year analysis over the study period.
func perYear[T any](d *paperData, f func(year int) T) []T {
	out := make([]T, 0, dcnr.LastYear-dcnr.FirstYear+1)
	for y := dcnr.FirstYear; y <= dcnr.LastYear; y++ {
		out = append(out, f(y))
	}
	return out
}

// curve is a percentile curve plus, for the figures that plot one, its
// fitted exponential model (or the fit's error).
func curve(metric map[string]float64, fit bool) any {
	c := dcnr.Curve(metric)
	if !fit {
		return c
	}
	f, err := dcnr.FitCurve(metric)
	if err != nil {
		return []any{c, err.Error()}
	}
	return []any{c, f}
}

// claims grades the paper's 19 headline claims over both datasets.
func claims(d *paperData) []dcnr.ClaimResult {
	return append(d.intra.Analysis.VerifyIntraClaims(), d.inter.Analysis.VerifyInterClaims()...)
}

// pass regenerates every artifact and grades the claims on a pool of
// workers, like cmd/repro's all-experiments run, and returns the artifacts
// and the number of claims that held. When tr is non-nil, each task is a
// span under parent.
func pass(d *paperData, workers int, tr *tracer, op, parent int64) ([]any, int, error) {
	outs := make([]any, len(artifactFns))
	var graded []dcnr.ClaimResult
	err := dcnr.RunLimit(workers, len(artifactFns)+1, func(i int) error {
		lane := 1 + i%workers
		if i == len(artifactFns) {
			tr.call(lane, "core", "claims", op, parent, func() { graded = claims(d) })
		} else {
			tr.call(lane, "core", artifacts[i], op, parent, func() { outs[i] = artifactFns[i](d) })
		}
		return nil
	})
	held := 0
	for _, c := range graded {
		if c.Pass {
			held++
		}
	}
	return outs, held, err
}

// runFigures builds the datasets in setup — the intra-DC one at the seed,
// the backbone at a typical backbone seed drawn from it — then regenerates
// every artifact in a closed loop with one caller, for the measured time
// and at least minOps passes. One op is one full pass.
func runFigures(cfg config, tr *tracer, r *result) error {
	var (
		d      paperData
		bbSeed uint64
	)
	setup, err := cfg.timeSetups(func() (func(), error) {
		bbSeeds, err := typicalBackboneSeeds(cfg.seed, cfg.figScale, 1)
		if err != nil {
			return nil, err
		}
		bbSeed = bbSeeds[0]
		intra, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{Seed: cfg.seed, Scale: cfg.figScale})
		if err != nil {
			return nil, err
		}
		bcfg := dcnr.DefaultBackboneConfig()
		bcfg.Seed = bbSeed
		bcfg.Edges *= cfg.figScale
		inter, err := dcnr.SimulateBackbone(bcfg)
		if err != nil {
			return nil, err
		}
		d = paperData{intra, inter}
		return func() { d = paperData{} }, nil
	})
	if err != nil {
		return err
	}
	r.Metrics["setup_s"] = setup
	r.Info["backbone_seed"] = fmt.Sprint(bbSeed)

	// One untimed op warms caches, grows the heap to its working size and
	// gives the output every later op must reproduce.
	outs, wantHeld, err := pass(&d, cfg.senders, nil, 0, 0)
	if err != nil {
		return err
	}
	want := tree(reflect.ValueOf(outs))
	total := len(claims(&d))
	r.Info["digest"] = digestOf(want)
	r.Info["claims"] = fmt.Sprintf("%d/%d", wantHeld, total)
	if cfg.isReference() {
		r.check(r.Info["digest"] == figuresDigest, "artifact digest %s, reference %s", r.Info["digest"], figuresDigest)
		r.check(wantHeld == total, "%d/%d claims reproduced at the reference seed", wantHeld, total)
	}

	var (
		lat  []float64
		busy time.Duration
	)
	ph := beginPhase()
	start := time.Now()
	for op := int64(1); time.Since(start) < cfg.measure() || len(lat) < cfg.minOps; op++ {
		t0 := time.Now()
		id := tr.newID()
		outs, held, err := pass(&d, cfg.senders, tr, op, id)
		took := time.Since(t0)
		tr.recordAs(id, 1, "dcnrbench", "pass", op, 0, t0, took)
		busy += took
		lat = append(lat, durMS(took))
		r.Attempted++
		if err != nil || held != wantHeld || !sameValue(tree(reflect.ValueOf(outs)), want) {
			r.Failed++
			r.Problems = appendCapped(r.Problems, fmt.Sprintf("pass %d: artifacts or claims (%d held, want %d) differ from the first pass (err %v)", op, held, wantHeld, err))
		}
	}
	ph.end(r, len(lat))
	// The caller waits for passes only; the output checks between them are
	// the benchmark's.
	r.Metrics["throughput_ops_s"] = float64(len(lat)) / busy.Seconds()
	if err := r.latencies(lat); err != nil {
		return err
	}
	if tr != nil {
		figuresLayers(&d, cfg, tr, r, median(lat))
	}
	return nil
}

// figuresLayers runs serialPasses passes one artifact at a time and
// reports each artifact's median time, the claims' median time, and the
// pool's speedup: the median serial pass over the median pooled pass.
func figuresLayers(d *paperData, cfg config, tr *tracer, r *result, pooledMS float64) {
	per := make([][]float64, len(artifactFns))
	var claimsUS, serialMS []float64
	for p := 0; p < cfg.serialPasses; p++ {
		op := int64(-1 - p)
		t0 := time.Now()
		id := tr.newID()
		for i, f := range artifactFns {
			per[i] = append(per[i], durUS(tr.call(1, "core", artifacts[i], op, id, func() { f(d) })))
		}
		claimsUS = append(claimsUS, durUS(tr.call(1, "core", "claims", op, id, func() { claims(d) })))
		took := time.Since(t0)
		tr.recordAs(id, 1, "dcnrbench", "serial pass", op, 0, t0, took)
		serialMS = append(serialMS, durMS(took))
	}
	for i, id := range artifacts {
		r.Layers["core."+id+"_us"] = median(per[i])
	}
	r.Layers["core.claims_us"] = median(claimsUS)
	r.Layers["core.pool_speedup"] = median(serialMS) / pooledMS
}
