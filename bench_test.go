package dcnr

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's per-experiment index). Dataset generation happens once,
// outside the timed region; each benchmark times the analysis that
// regenerates its artifact. cmd/repro prints the same rows.

import (
	"sync"
	"testing"

	"dcnr/internal/des"
	"dcnr/internal/remediation"
	"dcnr/internal/simrand"
)

var (
	benchOnce  sync.Once
	benchIntra *IntraResult
	benchInter *BackboneResult
	benchErr   error
)

func benchData(b *testing.B) (*IntraResult, *BackboneResult) {
	b.Helper()
	benchOnce.Do(func() {
		benchIntra, benchErr = SimulateIntraDC(IntraConfig{Seed: 20181031})
		if benchErr != nil {
			return
		}
		cfg := DefaultBackboneConfig()
		cfg.Seed = 20161001
		benchInter, benchErr = SimulateBackbone(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIntra, benchInter
}

// BenchmarkTable1AutomatedRepair times the automated repair engine itself:
// fault submission through priority assignment, wait scheduling, and
// outcome delivery (Table 1's machinery).
func BenchmarkTable1AutomatedRepair(b *testing.B) {
	sim := &des.Simulator{}
	engine := remediation.NewEngine(sim, simrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.SubmitTag(RSW, remediation.PortPingFailure, 0, func(int32, remediation.Outcome) {}, 0)
		if i%1024 == 0 {
			sim.Run(sim.Now() + 1e6)
		}
	}
	sim.Run(1e18)
	st := engine.Stats()[RSW]
	if st.Issues != b.N {
		b.Fatalf("issues = %d, want %d", st.Issues, b.N)
	}
	b.ReportMetric(st.RepairRatio(), "repair-ratio")
}

func BenchmarkTable2RootCauses(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := intra.Analysis.RootCauseDistribution()
		if len(dist) == 0 {
			b.Fatal("empty distribution")
		}
	}
}

func BenchmarkTable3SevLevels(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range Severities {
			if intra.Store.Query().Year(2017).Severity(s).Count() < 0 {
				b.Fatal("impossible")
			}
		}
	}
}

func BenchmarkTable4Continents(b *testing.B) {
	_, inter := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := inter.Analysis.ByContinent()
		if len(rows) != len(Continents) {
			b.Fatal("missing continents")
		}
	}
}

func BenchmarkFig2RootCauseByDevice(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.RootCauseByDevice()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig3IncidentRate(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := FirstYear; y <= LastYear; y++ {
			if intra.Analysis.IncidentRate(y) == nil {
				b.Fatal("nil rates")
			}
		}
	}
}

func BenchmarkFig4SevByDevice(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.SeverityBreakdown(2017)) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig5SevRateOverTime(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.SevRatePerDevice()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig6SwitchesVsEmployees(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.SwitchesVsEmployees()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig7IncidentFractions(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.IncidentFractions()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig8NormalizedIncidents(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.NormalizedIncidents(2017)) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig9DesignIncidents(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.DesignIncidents(2017)) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig10DesignRate(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.DesignRate()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig11Population(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.PopulationBreakdown()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig12MTBI(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := FirstYear; y <= LastYear; y++ {
			if intra.Analysis.MTBI(y) == nil {
				b.Fatal("nil MTBI")
			}
		}
	}
}

func BenchmarkFig13P75IRT(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := FirstYear; y <= LastYear; y++ {
			if intra.Analysis.P75IRT(y) == nil {
				b.Fatal("nil p75IRT")
			}
		}
	}
}

func BenchmarkFig14IRTvsScale(b *testing.B) {
	intra, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(intra.Analysis.IRTvsScale()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig15EdgeMTBF(b *testing.B) {
	_, inter := benchData(b)
	b.ResetTimer()
	var fit ExpFit
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = FitCurve(inter.Analysis.EdgeMTBF())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.R2, "R2")
}

func BenchmarkFig16EdgeMTTR(b *testing.B) {
	_, inter := benchData(b)
	b.ResetTimer()
	var fit ExpFit
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = FitCurve(inter.Analysis.EdgeMTTR())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.R2, "R2")
}

func BenchmarkFig17VendorMTBF(b *testing.B) {
	_, inter := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(inter.Analysis.VendorMTBF()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig18VendorMTTR(b *testing.B) {
	_, inter := benchData(b)
	b.ResetTimer()
	var fit ExpFit
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = FitCurve(inter.Analysis.VendorMTTR())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.R2, "R2")
}

// BenchmarkInterAnalysisBuild times NewInterAnalysis: the per-link merge,
// the per-edge outage sweep and the per-vendor scan that the §6 artifacts
// (Table 4, Figures 15–18) then only read.
func BenchmarkInterAnalysisBuild(b *testing.B) {
	_, inter := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewInterAnalysis(inter.Topology, inter.Downtimes, inter.Analysis.WindowHours); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRemediation runs the full 2017 counterfactual pair per
// iteration (§5.6): the heaviest experiment, reported as whole-run time.
func BenchmarkAblationRemediation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, err := SimulateIntraDC(IntraConfig{Seed: 11, FromYear: 2017, ToYear: 2017})
		if err != nil {
			b.Fatal(err)
		}
		off, err := SimulateIntraDC(IntraConfig{Seed: 11, FromYear: 2017, ToYear: 2017, DisableRemediation: true})
		if err != nil {
			b.Fatal(err)
		}
		if off.Incidents <= on.Incidents {
			b.Fatal("ablation had no effect")
		}
		if i == 0 {
			b.ReportMetric(float64(off.Incidents)/float64(on.Incidents), "incident-increase-x")
		}
	}
}

// BenchmarkAblationRedundancy times topology-derived impact assessment
// across all device types and scopes (§5.2/§5.4's redundancy arguments).
func BenchmarkAblationRedundancy(b *testing.B) {
	intra, _ := benchData(b)
	_ = intra
	net, err := newBenchTopology()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := assessAllScopes(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateIntraDC and BenchmarkSimulateBackbone time dataset
// generation itself — the substrate every experiment rests on.
func BenchmarkSimulateIntraDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := SimulateIntraDC(IntraConfig{Seed: uint64(i), FromYear: 2017, ToYear: 2017})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Faults), "faults/run")
		}
	}
}

func BenchmarkSimulateBackbone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultBackboneConfig()
		cfg.Seed = uint64(i)
		res, err := SimulateBackbone(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Notices)), "notices/run")
		}
	}
}

// SEV query-engine benches: the indexed store paths the per-figure
// analyses ride on (point lookups, posting-list intersections, one-pass
// grouped aggregations).

func BenchmarkSevQueryIndexedCount(b *testing.B) {
	intra, _ := benchData(b)
	store := intra.Store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if store.Query().Year(2017).Severity(Sev3).Count() < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkSevQueryGroupedCounts(b *testing.B) {
	intra, _ := benchData(b)
	store := intra.Store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(store.Query().CountByYearDeviceType()) == 0 {
			b.Fatal("empty")
		}
		if len(store.Query().CountByYearSeverity()) == 0 {
			b.Fatal("empty")
		}
	}
}

// Ingest benches: the per-report Add path (one write lock per report)
// against the batched AddAll path (one write lock per batch) over the same
// simulated dataset.

func benchIngestReports(b *testing.B) []SEVReport {
	intra, _ := benchData(b)
	reports := intra.Store.All()
	for i := range reports {
		reports[i].ID = 0
	}
	return reports
}

func BenchmarkSevQueryIngestAdd(b *testing.B) {
	reports := benchIngestReports(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := NewSEVStore()
		for _, r := range reports {
			if _, err := store.Add(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(reports)), "reports/op")
}

func BenchmarkSevQueryIngestAddAll(b *testing.B) {
	reports := benchIngestReports(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := NewSEVStore()
		if _, err := store.AddAll(reports); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reports)), "reports/op")
}

// BenchmarkReproFanOut measures the all-experiments fan-out speedup the
// repro runner exposes: the same 21 analysis regenerations serial vs on a
// bounded pool.
func BenchmarkReproFanOut(b *testing.B) {
	intra, inter := benchData(b)
	tasks := []func() error{
		func() error { intra.Analysis.RootCauseDistribution(); return nil },
		func() error { intra.Analysis.RootCauseByDevice(); return nil },
		func() error { intra.Analysis.SeverityBreakdown(2017); return nil },
		func() error { intra.Analysis.SevRatePerDevice(); return nil },
		func() error { intra.Analysis.IncidentFractions(); return nil },
		func() error { intra.Analysis.NormalizedIncidents(2017); return nil },
		func() error { intra.Analysis.DesignIncidents(2017); return nil },
		func() error { intra.Analysis.DesignRate(); return nil },
		func() error { intra.Analysis.PopulationBreakdown(); return nil },
		func() error { intra.Analysis.IRTvsScale(); return nil },
		func() error {
			for y := FirstYear; y <= LastYear; y++ {
				intra.Analysis.MTBI(y)
				intra.Analysis.P75IRT(y)
				intra.Analysis.IncidentRate(y)
			}
			return nil
		},
		func() error { _, err := FitCurve(inter.Analysis.EdgeMTBF()); return err },
		func() error { _, err := FitCurve(inter.Analysis.EdgeMTTR()); return err },
		func() error { _, err := FitCurve(inter.Analysis.VendorMTTR()); return err },
		func() error { inter.Analysis.ByContinent(); return nil },
	}
	for _, workers := range []int{1, 4} {
		name := "serial"
		if workers > 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := RunLimit(workers, len(tasks), func(j int) error { return tasks[j]() }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Operational benches: the mechanisms behind §3.1, §5.1, §5.2, and §5.7.

func BenchmarkCongestionAfterFailure(b *testing.B) {
	net, err := ReferenceTopology()
	if err != nil {
		b.Fatal(err)
	}
	demands, err := GenerateTraffic(net, 1)
	if err != nil {
		b.Fatal(err)
	}
	down := map[string]bool{net.DevicesOfType(CSW)[0].Name: true}
	b.ResetTimer()
	var rep TrafficReport
	for i := 0; i < b.N; i++ {
		rep = StudyTraffic(net, demands, down)
	}
	b.ReportMetric(rep.MaxUtilization, "peak-util")
}

func BenchmarkAblationDrainPolicy(b *testing.B) {
	net, err := ReferenceTopology()
	if err != nil {
		b.Fatal(err)
	}
	var group []string
	unit := net.DevicesOfType(CSW)[0].Unit
	for _, d := range net.DevicesOfType(CSW) {
		if d.Unit == unit {
			group = append(group, d.Name)
		}
	}
	sched, err := NewMaintenanceScheduler(NewImpactAssessor(net), 1)
	if err != nil {
		b.Fatal(err)
	}
	sched.MishapProb = 1
	b.ResetTimer()
	incidents := [2]int{}
	for i := 0; i < b.N; i++ {
		for pi, policy := range []DrainPolicy{NoDrain, DrainFirst} {
			rep, err := sched.RollingMaintenance(group, policy)
			if err != nil {
				b.Fatal(err)
			}
			incidents[pi] += rep.IncidentCount()
		}
	}
	if incidents[1] != 0 {
		b.Fatalf("drained maintenance caused %d incidents", incidents[1])
	}
}

func BenchmarkAblationConfigGuard(b *testing.B) {
	var guarded, unguarded float64
	for i := 0; i < b.N; i++ {
		var err error
		guarded, err = ConfigBlastStudy(NewConfigGuard(10), 200, 10000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		unguarded, err = ConfigBlastStudy(UnguardedConfig(), 200, 10000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(unguarded/guarded, "blast-reduction-x")
}

func BenchmarkDrillSuite(b *testing.B) {
	net, err := ReferenceTopology()
	if err != nil {
		b.Fatal(err)
	}
	demands, err := GenerateTraffic(net, 1)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := NewDrillRunner(net, demands)
	if err != nil {
		b.Fatal(err)
	}
	scenarios, err := StandardDrills(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := runner.RunAll(scenarios)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(scenarios) {
			b.Fatal("missing results")
		}
	}
}

// BenchmarkWANReroute times the §3.2 traffic engineer under a three-plane
// fiber cut.
func BenchmarkWANReroute(b *testing.B) {
	bb, err := NewWANBackbone(WANConfig{Regions: []string{"east", "central", "west"}})
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := bb.SetLinkDown("east", "west", p, true); err != nil {
			b.Fatal(err)
		}
	}
	demands := []WANDemand{
		{From: "east", To: "west", Gbps: 900},
		{From: "east", To: "central", Gbps: 300},
	}
	b.ResetTimer()
	var rep WANReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bb.Engineer(demands)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.MeanPathHops, "mean-hops")
}
