package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dcnr/internal/backbone"
	"dcnr/internal/simrand"
	"dcnr/internal/tickets"
)

// naiveInter is the reference InterAnalysis is checked against: every
// accessor re-merges and re-sweeps the raw records on each call, the way
// the analysis worked before it computed its aggregates at build time.
type naiveInter struct {
	window      float64
	downs       []tickets.Downtime
	edgeLinks   map[string][]string
	edgeCont    map[string]backbone.Continent
	vendorLinks map[string]int
	merged      map[string][]interval
}

func newNaiveInter(topo *backbone.Topology, downs []tickets.Downtime, window float64) *naiveInter {
	n := &naiveInter{
		window:      window,
		downs:       downs,
		edgeLinks:   make(map[string][]string),
		edgeCont:    make(map[string]backbone.Continent),
		vendorLinks: make(map[string]int),
		merged:      make(map[string][]interval),
	}
	for _, e := range topo.Edges {
		for _, li := range e.Links {
			n.edgeLinks[e.Name] = append(n.edgeLinks[e.Name], topo.Links[li].Name)
		}
		n.edgeCont[e.Name] = e.Continent
	}
	for _, l := range topo.Links {
		n.vendorLinks[topo.Vendors[l.Vendor].Name]++
	}
	byLink := make(map[string][]interval)
	for _, d := range downs {
		byLink[d.Link] = append(byLink[d.Link], interval{d.Start, d.End})
	}
	for link, ivs := range byLink {
		n.merged[link] = mergeIntervals(ivs)
	}
	return n
}

func (n *naiveInter) edgeOutages(edge string) []interval {
	links := n.edgeLinks[edge]
	type boundary struct {
		at    float64
		delta int
	}
	var bs []boundary
	for _, link := range links {
		for _, iv := range n.merged[link] {
			bs = append(bs, boundary{iv.start, +1}, boundary{iv.end, -1})
		}
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].at != bs[j].at {
			return bs[i].at < bs[j].at
		}
		return bs[i].delta > bs[j].delta
	})
	var out []interval
	downCount, outageStart := 0, 0.0
	for _, b := range bs {
		before := downCount
		downCount += b.delta
		if before < len(links) && downCount == len(links) {
			outageStart = b.at
		}
		if before == len(links) && downCount < len(links) && b.at > outageStart {
			out = append(out, interval{outageStart, b.at})
		}
	}
	return out
}

func (n *naiveInter) EdgeMTBF() map[string]float64 {
	out := make(map[string]float64)
	for edge := range n.edgeLinks {
		o := n.edgeOutages(edge)
		if len(o) < 2 {
			continue
		}
		out[edge] = (o[len(o)-1].start - o[0].start) / float64(len(o)-1)
	}
	return out
}

func (n *naiveInter) downSum(edge string) float64 {
	sum := 0.0
	for _, o := range n.edgeOutages(edge) {
		sum += o.end - o.start
	}
	return sum
}

func (n *naiveInter) EdgeAvailability() map[string]float64 {
	out := make(map[string]float64)
	for edge := range n.edgeLinks {
		out[edge] = 1 - n.downSum(edge)/n.window
	}
	return out
}

func (n *naiveInter) EdgeMTTR() map[string]float64 {
	out := make(map[string]float64)
	for edge := range n.edgeLinks {
		if k := len(n.edgeOutages(edge)); k > 0 {
			out[edge] = n.downSum(edge) / float64(k)
		}
	}
	return out
}

func (n *naiveInter) EdgeFailureRateMTBF() map[string]float64 {
	out := make(map[string]float64)
	for edge := range n.edgeLinks {
		if k := len(n.edgeOutages(edge)); k > 0 {
			out[edge] = n.window / float64(k)
		}
	}
	return out
}

func (n *naiveInter) ConditionalRisk() map[string]float64 {
	out := make(map[string]float64)
	for edge := range n.edgeLinks {
		out[edge] = n.downSum(edge) / n.window
	}
	return out
}

func (n *naiveInter) ByContinent() map[backbone.Continent]ContinentStats {
	type agg struct {
		edges, outages int
		downHours      float64
	}
	aggs := make(map[backbone.Continent]*agg)
	for edge, cont := range n.edgeCont {
		g := aggs[cont]
		if g == nil {
			g = &agg{}
			aggs[cont] = g
		}
		g.edges++
		for _, o := range n.edgeOutages(edge) {
			g.outages++
			g.downHours += o.end - o.start
		}
	}
	out := make(map[backbone.Continent]ContinentStats)
	for cont, g := range aggs {
		s := ContinentStats{Share: float64(g.edges) / float64(len(n.edgeCont))}
		if g.outages > 0 {
			s.MTBF = float64(g.edges) * n.window / float64(g.outages)
			s.MTTR = g.downHours / float64(g.outages)
		}
		out[cont] = s
	}
	return out
}

func (n *naiveInter) vendorScan() (failures map[string]int, repair map[string]float64) {
	failures, repair = make(map[string]int), make(map[string]float64)
	for _, d := range n.downs {
		if isolated(d) {
			failures[d.Vendor]++
			repair[d.Vendor] += d.Duration()
		}
	}
	return failures, repair
}

func (n *naiveInter) VendorMTBF() map[string]float64 {
	failures, _ := n.vendorScan()
	out := make(map[string]float64)
	for vendor, k := range failures {
		out[vendor] = float64(n.vendorLinks[vendor]) * n.window / float64(k)
	}
	return out
}

func (n *naiveInter) VendorMTTR() map[string]float64 {
	failures, repair := n.vendorScan()
	out := make(map[string]float64)
	for vendor, k := range failures {
		out[vendor] = repair[vendor] / float64(k)
	}
	return out
}

func (n *naiveInter) VendorProfiles() []VendorProfile {
	failures, _ := n.vendorScan()
	mtbf, mttr := n.VendorMTBF(), n.VendorMTTR()
	var out []VendorProfile
	for vendor, links := range n.vendorLinks {
		out = append(out, VendorProfile{
			Vendor: vendor, Links: links, Failures: failures[vendor],
			MTBF: mtbf[vendor], MTTR: mttr[vendor],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Failures > 0) != (b.Failures > 0) {
			return a.Failures == 0
		}
		if a.MTBF != b.MTBF {
			return a.MTBF > b.MTBF
		}
		return a.Vendor < b.Vendor
	})
	return out
}

// smallBackbone is a 12-edge, 5-vendor inventory with three-to-four links
// per edge, so random cuts often take a whole edge down. Its second edge
// is cut back to a single link.
func smallBackbone(t testing.TB, seed uint64) *backbone.Topology {
	t.Helper()
	topo, err := backbone.Build(backbone.Config{Edges: 12, Months: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// Keep at most four links per edge, renumbered, on the first five
	// vendors.
	topo.Vendors = topo.Vendors[:5]
	var links []backbone.Link
	for i := range topo.Edges {
		e := &topo.Edges[i]
		kept := e.Links[:min(len(e.Links), 4)]
		e.Links = nil
		for _, li := range kept {
			l := topo.Links[li]
			l.Vendor %= len(topo.Vendors)
			e.Links = append(e.Links, len(links))
			links = append(links, l)
		}
	}
	topo.Links = links
	topo.Edges[1].Links = topo.Edges[1].Links[:1]
	return topo
}

// randomDowns draws n downtime records over the inventory. Times sit on a
// whole-hour grid and durations run 0–5 h, so overlapping, touching and
// zero-length intervals are all common. Every seventh link never fails,
// half the records are whole-edge cuts with per-link jitter, and a few
// name a vendor outside the inventory.
func randomDowns(r *simrand.Stream, topo *backbone.Topology, n int, window float64) []tickets.Downtime {
	var downs []tickets.Downtime
	add := func(li int, start, end float64) {
		if li%7 == 0 {
			return
		}
		l := topo.Links[li]
		start, end = math.Max(0, start), math.Min(window, end)
		if end < start {
			return
		}
		vendor := topo.Vendors[l.Vendor].Name
		if r.Bool(0.02) {
			vendor = "unlisted"
		}
		downs = append(downs, tickets.Downtime{
			TicketID: fmt.Sprintf("T%d", len(downs)),
			Vendor:   vendor, Link: l.Name, Edge: topo.Edges[l.Edge].Name,
			Start: start, End: end, Maintenance: r.Bool(0.5),
		})
	}
	slots := int(window)
	for len(downs) < n {
		start := float64(r.Intn(slots))
		dur := float64(r.Intn(6))
		if r.Bool(0.5) {
			add(r.Intn(len(topo.Links)), start, start+dur)
			continue
		}
		for _, li := range topo.Edges[r.Intn(len(topo.Edges))].Links {
			jitter := float64(r.Intn(3) - 1)
			add(li, start+jitter, start+dur+float64(r.Intn(3)-1))
		}
	}
	return downs
}

func sameFloats[K comparable](t *testing.T, what string, got, want map[K]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s[%v] = %v (present %t), reference %v", what, k, g, ok, w)
		}
	}
}

// TestInterAnalysisMatchesNaiveReference checks every cached accessor
// against the per-call reference over random downtime sets.
func TestInterAnalysisMatchesNaiveReference(t *testing.T) {
	const window = 500.0
	outages := 0
	for seed := uint64(1); seed <= 40; seed++ {
		topo := smallBackbone(t, seed)
		r := simrand.New(seed)
		downs := randomDowns(r, topo, r.Intn(300), window)
		a, err := NewInterAnalysis(topo, downs, window)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveInter(topo, downs, window)
		for _, e := range a.edges {
			outages += len(e.outages)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sameFloats(t, "EdgeMTBF", a.EdgeMTBF(), ref.EdgeMTBF())
			sameFloats(t, "EdgeMTTR", a.EdgeMTTR(), ref.EdgeMTTR())
			sameFloats(t, "EdgeAvailability", a.EdgeAvailability(), ref.EdgeAvailability())
			sameFloats(t, "EdgeFailureRateMTBF", a.EdgeFailureRateMTBF(), ref.EdgeFailureRateMTBF())
			sameFloats(t, "ConditionalRisk", a.ConditionalRisk(), ref.ConditionalRisk())
			sameFloats(t, "VendorMTBF", a.VendorMTBF(), ref.VendorMTBF())
			sameFloats(t, "VendorMTTR", a.VendorMTTR(), ref.VendorMTTR())
			if got, want := a.VendorProfiles(), ref.VendorProfiles(); !reflect.DeepEqual(got, want) {
				t.Errorf("VendorProfiles = %+v\nreference %+v", got, want)
			}
			// The reference sums continent MTTR in map order, so only its
			// last bits may differ; shares and MTBFs are exact.
			got, want := a.ByContinent(), ref.ByContinent()
			if len(got) != len(want) {
				t.Errorf("ByContinent: %d rows, reference %d", len(got), len(want))
			}
			for c, w := range want {
				g := got[c]
				if g.Share != w.Share || g.MTBF != w.MTBF || math.Abs(g.MTTR-w.MTTR) > 1e-12*math.Abs(w.MTTR) {
					t.Errorf("ByContinent[%v] = %+v, reference %+v", c, g, w)
				}
			}
		})
	}
	if outages == 0 {
		t.Fatal("random downtime sets produced no edge outages")
	}
}

func TestByContinentBitStable(t *testing.T) {
	a := interAnalysis(t)
	first := a.ByContinent()
	for i := 0; i < 20; i++ {
		for c, r := range a.ByContinent() {
			f := first[c]
			if math.Float64bits(r.Share) != math.Float64bits(f.Share) ||
				math.Float64bits(r.MTBF) != math.Float64bits(f.MTBF) ||
				math.Float64bits(r.MTTR) != math.Float64bits(f.MTTR) {
				t.Fatalf("call %d: ByContinent[%v] = %+v, first call %+v", i, c, r, f)
			}
		}
	}
}

// interResults gathers every accessor's output on a.
func interResults(a *InterAnalysis) []any {
	return []any{
		a.EdgeMTBF(), a.EdgeMTTR(), a.EdgeAvailability(), a.EdgeFailureRateMTBF(),
		a.ByContinent(), a.ConditionalRisk(), a.VendorMTBF(), a.VendorMTTR(),
		a.VendorProfiles(), a.VerifyInterClaims(),
	}
}

func TestInterAnalysisConcurrentReaders(t *testing.T) {
	a := interAnalysis(t)
	want := interResults(a)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := interResults(a); !reflect.DeepEqual(got, want) {
					t.Error("concurrent accessor results differ from the serial ones")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The accessors walk the aggregates built once at construction, so their
// allocations depend on the inventory, not on how many records it holds.
func TestInterAccessorAllocsIndependentOfRecords(t *testing.T) {
	const window = 2000.0
	topo := smallBackbone(t, 3)
	build := func(n int) *InterAnalysis {
		a, err := NewInterAnalysis(topo, randomDowns(simrand.New(uint64(n)), topo, n, window), window)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	small, large := build(500), build(2000)
	for name, call := range map[string]func(a *InterAnalysis){
		"ByContinent": func(a *InterAnalysis) { a.ByContinent() },
		"VendorMTBF":  func(a *InterAnalysis) { a.VendorMTBF() },
		"EdgeMTTR":    func(a *InterAnalysis) { a.EdgeMTTR() },
	} {
		s := testing.AllocsPerRun(50, func() { call(small) })
		l := testing.AllocsPerRun(50, func() { call(large) })
		if l > s {
			t.Errorf("%s: %.0f allocs/call over 4x the records, %.0f before", name, l, s)
		}
	}
}
