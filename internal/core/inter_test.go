package core

import (
	"math"
	"sync"
	"testing"

	"dcnr/internal/backbone"
	"dcnr/internal/stats"
	"dcnr/internal/tickets"
)

var (
	interOnce sync.Once
	interA    *InterAnalysis
	interErr  error
	interTopo *backbone.Topology
)

func interAnalysis(t *testing.T) *InterAnalysis {
	t.Helper()
	interOnce.Do(func() {
		cfg := backbone.DefaultConfig()
		cfg.Seed = 20161001 // window start: October 2016
		topo, err := backbone.Build(cfg)
		if err != nil {
			interErr = err
			return
		}
		interTopo = topo
		downs, err := topo.Simulate(cfg)
		if err != nil {
			interErr = err
			return
		}
		// Round-trip the raw intervals through the full ticket pipeline,
		// so the analysis consumes what the collector reconstructed.
		coll := tickets.NewCollector()
		coll.WindowHours = cfg.WindowHours()
		for _, n := range tickets.Generate(topo, downs) {
			if err := coll.Ingest(n); err != nil {
				interErr = err
				return
			}
		}
		interA, interErr = NewInterAnalysis(topo, coll.Downtimes(), cfg.WindowHours())
	})
	if interErr != nil {
		t.Fatal(interErr)
	}
	return interA
}

func TestNewInterAnalysisValidation(t *testing.T) {
	topo, err := backbone.Build(backbone.Config{Edges: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterAnalysis(topo, nil, 0); err == nil {
		t.Error("zero window accepted")
	}
	bad := []tickets.Downtime{{Link: "link0001", Start: -5, End: 1}}
	if _, err := NewInterAnalysis(topo, bad, 100); err == nil {
		t.Error("negative-start interval accepted")
	}
	late := []tickets.Downtime{{Link: "link0001", Start: 50, End: 200}}
	if _, err := NewInterAnalysis(topo, late, 100); err == nil {
		t.Error("interval past window accepted")
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{{5, 8}, {1, 3}, {2, 4}, {8, 9}, {20, 21}})
	want := []interval{{1, 4}, {5, 9}, {20, 21}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if mergeIntervals(nil) != nil {
		t.Error("empty merge not nil")
	}
}

func TestEdgeOutagesRequireAllLinksDown(t *testing.T) {
	topo, err := backbone.Build(backbone.Config{Edges: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	edge := topo.Edges[0]
	linkName := func(i int) string { return topo.Links[edge.Links[i]].Name }
	// One link down: no outage. All links down overlapping [10, 12]: outage.
	var downs []tickets.Downtime
	downs = append(downs, tickets.Downtime{Link: linkName(0), Edge: edge.Name, Vendor: "v", Start: 1, End: 3})
	for i := range edge.Links {
		downs = append(downs, tickets.Downtime{
			Link: linkName(i), Edge: edge.Name, Vendor: "v",
			Start: 10 - float64(i), End: 12 + float64(i),
		})
	}
	a, err := NewInterAnalysis(topo, downs, 100)
	if err != nil {
		t.Fatal(err)
	}
	outages := a.edges[0].outages
	if a.edges[0].name != edge.Name {
		t.Fatalf("first edge record is %s, want %s", a.edges[0].name, edge.Name)
	}
	if len(outages) != 1 {
		t.Fatalf("outages = %v, want exactly one", outages)
	}
	if outages[0].start != 10 || outages[0].end != 12 {
		t.Errorf("outage = %v, want [10, 12]", outages[0])
	}
	// A single outage cannot yield a time-between-failures estimate.
	if _, ok := a.EdgeMTBF()[edge.Name]; ok {
		t.Error("edge MTBF reported from a single outage")
	}
	mttr := a.EdgeMTTR()
	if mttr[edge.Name] != 2 {
		t.Errorf("edge MTTR = %v, want 2", mttr[edge.Name])
	}

	// Add a second full-edge outage at [50, 53]: MTBF = gap of starts.
	for i := range edge.Links {
		downs = append(downs, tickets.Downtime{
			Link: linkName(i), Edge: edge.Name, Vendor: "v", Start: 50, End: 53,
		})
	}
	a2, err := NewInterAnalysis(topo, downs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.EdgeMTBF()[edge.Name]; got != 40 {
		t.Errorf("edge MTBF = %v, want 40 (gap between outage starts)", got)
	}
}

func TestEdgeMTBFMediansFig15(t *testing.T) {
	a := interAnalysis(t)
	mtbf := a.EdgeMTBF()
	if len(mtbf) < 100 {
		t.Fatalf("only %d edges measured", len(mtbf))
	}
	vals := make([]float64, 0, len(mtbf))
	for _, v := range mtbf {
		vals = append(vals, v)
	}
	p50, err := stats.Percentile(vals, 50)
	if err != nil {
		t.Fatal(err)
	}
	// §6.1: 50% of edges fail less than once every ~1710 h.
	if p50 < 1000 || p50 > 2800 {
		t.Errorf("edge MTBF p50 = %.0f h, want ~1710", p50)
	}
	p90, _ := stats.Percentile(vals, 90)
	if p90 < 2300 || p90 > 7000 {
		t.Errorf("edge MTBF p90 = %.0f h, want ~3521", p90)
	}
}

func TestEdgeMTBFModelFitFig15(t *testing.T) {
	a := interAnalysis(t)
	fit, err := FitCurve(a.EdgeMTBF())
	if err != nil {
		t.Fatal(err)
	}
	// The paper: MTBF(p) = 462.88·e^(2.3408p), R² = 0.94. We assert an
	// exponential percentile curve of the same character.
	if fit.R2 < 0.80 {
		t.Errorf("edge MTBF fit R² = %.3f, want ≥ 0.80 (paper: 0.94)", fit.R2)
	}
	if fit.B < 1.0 || fit.B > 4.0 {
		t.Errorf("edge MTBF fit B = %.3f, want ~2.34", fit.B)
	}
	if fit.A < 150 || fit.A > 1200 {
		t.Errorf("edge MTBF fit A = %.1f, want ~463", fit.A)
	}
}

func TestEdgeMTTRFig16(t *testing.T) {
	a := interAnalysis(t)
	mttr := a.EdgeMTTR()
	vals := make([]float64, 0, len(mttr))
	for _, v := range mttr {
		vals = append(vals, v)
	}
	p50, err := stats.Percentile(vals, 50)
	if err != nil {
		t.Fatal(err)
	}
	// §6.1: 50% of edges recover within ~10 h; 90% within ~71 h.
	if p50 < 4 || p50 > 26 {
		t.Errorf("edge MTTR p50 = %.1f h, want ~10", p50)
	}
	fit, err := FitCurve(mttr)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.70 {
		t.Errorf("edge MTTR fit R² = %.3f, want ≥ 0.70 (paper: 0.87)", fit.R2)
	}
	if fit.B < 1.5 || fit.B > 7 {
		t.Errorf("edge MTTR fit B = %.2f, want ~4.26", fit.B)
	}
}

func TestVendorMTBFFig17(t *testing.T) {
	a := interAnalysis(t)
	mtbf := a.VendorMTBF()
	if len(mtbf) < 15 {
		t.Fatalf("only %d vendors measured", len(mtbf))
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range mtbf {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	// §6.2: vendor MTBF varies by orders of magnitude.
	if max/min < 10 {
		t.Errorf("vendor MTBF spread = %.1f×, want ≥ 10×", max/min)
	}
	vals := make([]float64, 0, len(mtbf))
	for _, v := range mtbf {
		vals = append(vals, v)
	}
	p50, _ := stats.Percentile(vals, 50)
	// §6.2: 50% of vendors have a link failure every ~2326 h or sooner.
	if p50 < 800 || p50 > 5000 {
		t.Errorf("vendor MTBF p50 = %.0f, want ~2326", p50)
	}
}

func TestVendorMTTRFig18(t *testing.T) {
	a := interAnalysis(t)
	mttr := a.VendorMTTR()
	vals := make([]float64, 0, len(mttr))
	for _, v := range mttr {
		vals = append(vals, v)
	}
	p50, err := stats.Percentile(vals, 50)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: 50% of vendors repair within ~13 h.
	if p50 < 4 || p50 > 35 {
		t.Errorf("vendor MTTR p50 = %.1f, want ~13", p50)
	}
	fit, err := FitCurve(mttr)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: MTTR(p) = 1.1345·e^(4.7709p) with R² = 0.98.
	if fit.R2 < 0.75 {
		t.Errorf("vendor MTTR fit R² = %.3f, want high (paper: 0.98)", fit.R2)
	}
	if fit.B < 2.0 || fit.B > 7.5 {
		t.Errorf("vendor MTTR fit B = %.2f, want ~4.77", fit.B)
	}
}

func TestByContinentTable4(t *testing.T) {
	a := interAnalysis(t)
	rows := a.ByContinent()
	if len(rows) != len(backbone.Continents) {
		t.Fatalf("continents = %d", len(rows))
	}
	shareSum := 0.0
	for _, r := range rows {
		shareSum += r.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("continent shares sum to %v", shareSum)
	}
	// North America holds the plurality of edges.
	for c, r := range rows {
		if c != backbone.NorthAmerica && r.Share > rows[backbone.NorthAmerica].Share {
			t.Errorf("%v share %.2f exceeds North America %.2f", c, r.Share, rows[backbone.NorthAmerica].Share)
		}
	}
	// Africa: longest MTBF (Table 4's outlier).
	for c, r := range rows {
		if c != backbone.Africa && r.MTBF > rows[backbone.Africa].MTBF {
			t.Errorf("%v MTBF %.0f exceeds Africa %.0f", c, r.MTBF, rows[backbone.Africa].MTBF)
		}
	}
	// Australia: fastest recovery.
	for c, r := range rows {
		if c != backbone.Australia && r.MTTR < rows[backbone.Australia].MTTR {
			t.Errorf("%v MTTR %.1f below Australia %.1f", c, r.MTTR, rows[backbone.Australia].MTTR)
		}
	}
	// All continents recover within ~a day on average.
	for c, r := range rows {
		if r.MTTR > 36 {
			t.Errorf("%v MTTR = %.1f h, want ≲ 1 day", c, r.MTTR)
		}
	}
}

func TestConditionalRiskAndPlanRisk(t *testing.T) {
	a := interAnalysis(t)
	risk := a.ConditionalRisk()
	for edge, r := range risk {
		if r < 0 || r > 1 {
			t.Errorf("%s risk = %v", edge, r)
		}
	}
	p9999, err := a.PlanRisk(99.99)
	if err != nil {
		t.Fatal(err)
	}
	p50, _ := a.PlanRisk(50)
	if p9999 < p50 {
		t.Errorf("99.99th percentile risk %.5f below median %.5f", p9999, p50)
	}
	if p9999 <= 0 || p9999 > 0.25 {
		t.Errorf("plan risk = %.5f, want small but positive", p9999)
	}
}

func TestEventScale(t *testing.T) {
	// §6: tens of thousands of events over 18 months at study scale — our
	// default config produces thousands of intervals (each two events).
	a := interAnalysis(t)
	if a.LinkFailureCount() < 2000 {
		t.Errorf("link failure intervals = %d, want thousands", a.LinkFailureCount())
	}
}

func TestCurveHelpers(t *testing.T) {
	metric := map[string]float64{"a": 1, "b": 2, "c": 4}
	pts := Curve(metric)
	if len(pts) != 3 || pts[0].Y != 1 || pts[2].Y != 4 {
		t.Errorf("Curve = %v", pts)
	}
	if _, err := FitCurve(map[string]float64{}); err == nil {
		t.Error("FitCurve of empty metric succeeded")
	}
}

func TestVendorProfiles(t *testing.T) {
	a := interAnalysis(t)
	profiles := a.VendorProfiles()
	if len(profiles) != 24 {
		t.Fatalf("profiles = %d, want every vendor", len(profiles))
	}
	// Sorted most reliable first (no-failure vendors, then by MTBF).
	for i := 1; i < len(profiles); i++ {
		prev, cur := profiles[i-1], profiles[i]
		if prev.Failures > 0 && cur.Failures == 0 {
			t.Fatalf("ordering: failure-free vendor %s after %s", cur.Vendor, prev.Vendor)
		}
		if prev.Failures > 0 && cur.Failures > 0 && prev.MTBF < cur.MTBF {
			t.Fatalf("ordering: %s (%.0f) before %s (%.0f)", prev.Vendor, prev.MTBF, cur.Vendor, cur.MTBF)
		}
	}
	totalLinks := 0
	for _, p := range profiles {
		totalLinks += p.Links
		if p.Links == 0 {
			t.Errorf("vendor %s operates no links", p.Vendor)
		}
		if p.Failures > 0 && (p.MTBF <= 0 || p.MTTR <= 0) {
			t.Errorf("vendor %s has failures but no measured times: %+v", p.Vendor, p)
		}
	}
	if totalLinks != len(interTopo.Links) {
		t.Errorf("profiles cover %d links, topology has %d", totalLinks, len(interTopo.Links))
	}
}
