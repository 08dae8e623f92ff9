package backbone

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestContinentString(t *testing.T) {
	for _, c := range Continents {
		if strings.Contains(c.String(), "Continent(") {
			t.Errorf("continent %d unnamed", c)
		}
	}
	if !strings.Contains(Continent(99).String(), "99") {
		t.Error("out-of-range continent String")
	}
}

func TestContinentSharesSumToOne(t *testing.T) {
	sum := 0.0
	for _, c := range Continents {
		sum += ContinentShare(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum = %v", sum)
	}
	if ContinentShare(NorthAmerica) != 0.37 {
		t.Error("Table 4 NA share wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Edges: 3}, // fewer than continents
		{Months: -1},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	topo, err := Build(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges) != 120 || len(topo.Vendors) != 24 {
		t.Errorf("defaults not applied: %d edges, %d vendors", len(topo.Edges), len(topo.Vendors))
	}
}

func TestBuildShape(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge has 3–6 links, all pointing back at it.
	for ei, e := range topo.Edges {
		if len(e.Links) < 3 || len(e.Links) > 6 {
			t.Errorf("edge %s has %d links", e.Name, len(e.Links))
		}
		for _, li := range e.Links {
			if topo.Links[li].Edge != ei {
				t.Errorf("link %s does not point at its edge", topo.Links[li].Name)
			}
		}
	}
	// Continent distribution approximates Table 4.
	counts := map[Continent]int{}
	for _, e := range topo.Edges {
		counts[e.Continent]++
	}
	for _, c := range Continents {
		want := ContinentShare(c) * float64(len(topo.Edges))
		if math.Abs(float64(counts[c])-want) > 1.5 {
			t.Errorf("%v edges = %d, want ~%.1f", c, counts[c], want)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	t1, err := Build(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Build(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Links) != len(t2.Links) {
		t.Fatal("link counts differ")
	}
	for i := range t1.Links {
		if t1.Links[i] != t2.Links[i] {
			t.Fatalf("link %d differs", i)
		}
	}
	for i := range t1.Vendors {
		if t1.Vendors[i] != t2.Vendors[i] {
			t.Fatalf("vendor %d differs", i)
		}
	}
}

func TestVendorSpreadSpansOrders(t *testing.T) {
	// §6.2: vendor link MTBF varies by orders of magnitude.
	topo, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range topo.Vendors {
		if v.LinkMTBF < min {
			min = v.LinkMTBF
		}
		if v.LinkMTBF > max {
			max = v.LinkMTBF
		}
		if v.LinkMTTR < 1.1345 || v.LinkMTTR > 1.1345*math.Exp(4.7709)+1 {
			t.Errorf("vendor MTTR %v outside the fitted model's range", v.LinkMTTR)
		}
	}
	if max/min < 20 {
		t.Errorf("vendor MTBF spread = %.1fx, want orders of magnitude", max/min)
	}
}

func TestAfricaEdgesAreMostReliable(t *testing.T) {
	topo, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	avg := map[Continent]float64{}
	n := map[Continent]int{}
	for _, e := range topo.Edges {
		avg[e.Continent] += e.cutMTBF
		n[e.Continent]++
	}
	for c := range avg {
		avg[c] /= float64(n[c])
	}
	if avg[Africa] <= avg[NorthAmerica] || avg[Africa] <= avg[SouthAmerica] {
		t.Errorf("Africa MTBF %v not the longest (NA %v, SA %v)", avg[Africa], avg[NorthAmerica], avg[SouthAmerica])
	}
}

func TestSimulateProducesOrderedClippedIntervals(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) < 1000 {
		t.Fatalf("only %d downtime intervals over 18 months", len(downs))
	}
	window := cfg.WindowHours()
	for i, d := range downs {
		if d.Start < 0 || d.Start >= window {
			t.Fatalf("interval %d starts at %v", i, d.Start)
		}
		if d.End > window || d.End < d.Start {
			t.Fatalf("interval %d = [%v, %v]", i, d.Start, d.End)
		}
		if i > 0 && downs[i].Start < downs[i-1].Start {
			t.Fatalf("intervals not sorted at %d", i)
		}
		if d.Duration() < 0 {
			t.Fatalf("negative duration at %d", i)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{Edges: 30, Seed: 9}
	topo, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("lengths differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("interval %d differs", i)
		}
	}
}

func TestCutEventsTakeDownWholeEdge(t *testing.T) {
	cfg := Config{Edges: 30, Seed: 3}
	topo, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Group cut intervals by (edge, start): each must cover every link of
	// the edge.
	type key struct {
		edge  string
		start float64
	}
	byCut := map[key]int{}
	for _, d := range downs {
		if d.Cut {
			byCut[key{d.Edge, d.Start}]++
		}
	}
	if len(byCut) == 0 {
		t.Fatal("no cut events in 18 months")
	}
	linkCount := map[string]int{}
	for _, e := range topo.Edges {
		linkCount[e.Name] = len(e.Links)
	}
	for k, n := range byCut {
		if n != linkCount[k.edge] {
			t.Errorf("cut at %s/%v covered %d of %d links", k.edge, k.start, n, linkCount[k.edge])
		}
	}
}

func TestApportionProperty(t *testing.T) {
	f := func(n uint16) bool {
		edges := int(n%500) + len(Continents)
		counts := apportion(edges)
		total := 0
		for _, c := range Continents {
			if counts[c] < 1 {
				return false
			}
			total += counts[c]
		}
		// Allow the ≥1-per-continent floor to add at most a few edges.
		return total >= edges && total <= edges+len(Continents)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDownDuration(t *testing.T) {
	d := LinkDown{Start: 10, End: 25}
	if d.Duration() != 15 {
		t.Errorf("Duration = %v", d.Duration())
	}
}

func BenchmarkSimulate18Months(b *testing.B) {
	cfg := DefaultConfig()
	topo, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topo.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
