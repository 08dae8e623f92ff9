package core

import (
	"errors"
	"fmt"
	"sort"

	"dcnr/internal/backbone"
	"dcnr/internal/stats"
	"dcnr/internal/tickets"
)

// InterAnalysis answers the §6 questions over reconstructed vendor-ticket
// intervals. Construct with NewInterAnalysis.
//
// The analysis is immutable: NewInterAnalysis computes every per-edge and
// per-vendor aggregate once, and the accessors only read them, so one
// analysis is safe for any number of concurrent callers. One helper
// (each) reads every per-edge and per-vendor metric off those aggregates
// in inventory order: the exported name→value maps are built from it, and
// VerifyInterClaims sorts and fits each curve straight from it.
type InterAnalysis struct {
	// WindowHours is the observation window length.
	WindowHours float64

	// intervals counts the downtime records.
	intervals int
	// edges holds every edge's outages, in backbone inventory order
	// (monitoring knows the topology even for links that never failed).
	edges []edgeRecord
	// vendors holds every vendor's isolated-failure aggregates, ranked
	// most reliable first (the VendorProfiles order), including vendors
	// that appear only in the downtime records.
	vendors []vendorRecord
}

type interval struct{ start, end float64 }

// edgeRecord is one edge's §6 outage history.
type edgeRecord struct {
	name      string
	continent backbone.Continent
	// outages are the intervals during which every link of the edge was
	// down, in start order.
	outages []interval
	// downHours is the total outage time, summed in outage order.
	downHours float64
}

// vendorRecord is one vendor's link count and isolated-failure record.
type vendorRecord struct {
	name string
	// links counts the backbone links the vendor operates.
	links int
	// failures counts isolated failures; repairHours sums their durations
	// in downtime-record order.
	failures    int
	repairHours float64
}

// mtbf is the vendor's link observation hours over its isolated failures.
func (v vendorRecord) mtbf(windowHours float64) float64 {
	return float64(v.links) * windowHours / float64(v.failures)
}

// mttr is the vendor's mean isolated-failure repair time.
func (v vendorRecord) mttr() float64 { return v.repairHours / float64(v.failures) }

// NewInterAnalysis builds the analysis over the reconstructed downtime
// records, using the backbone inventory to enumerate links and their
// owners.
func NewInterAnalysis(topo *backbone.Topology, downs []tickets.Downtime, windowHours float64) (*InterAnalysis, error) {
	if windowHours <= 0 {
		return nil, errors.New("core: non-positive observation window")
	}
	for _, d := range downs {
		if d.Start < 0 || d.End > windowHours || d.End < d.Start {
			return nil, fmt.Errorf("core: interval [%v, %v] outside window", d.Start, d.End)
		}
	}
	a := &InterAnalysis{
		WindowHours: windowHours,
		intervals:   len(downs),
		edges:       make([]edgeRecord, len(topo.Edges)),
	}
	merged := mergePerLink(downs)
	for i, e := range topo.Edges {
		r := edgeRecord{name: e.Name, continent: e.Continent}
		r.outages = edgeOutages(topo, e.Links, merged)
		for _, o := range r.outages {
			r.downHours += o.end - o.start
		}
		a.edges[i] = r
	}
	vendorIdx := make(map[string]int)
	vendor := func(name string) *vendorRecord {
		i, ok := vendorIdx[name]
		if !ok {
			i = len(a.vendors)
			vendorIdx[name] = i
			a.vendors = append(a.vendors, vendorRecord{name: name})
		}
		return &a.vendors[i]
	}
	for _, l := range topo.Links {
		vendor(topo.Vendors[l.Vendor].Name).links++
	}
	for _, d := range downs {
		if isolated(d) {
			v := vendor(d.Vendor)
			v.failures++
			v.repairHours += d.Duration()
		}
	}
	sort.Slice(a.vendors, func(i, j int) bool {
		x, y := a.vendors[i], a.vendors[j]
		// Vendors with no failures observed are the most reliable.
		xBound, yBound := x.failures > 0, y.failures > 0
		if xBound != yBound {
			return !xBound
		}
		if xBound {
			if xm, ym := x.mtbf(windowHours), y.mtbf(windowHours); xm != ym {
				return xm > ym
			}
		}
		return x.name < y.name
	})
	return a, nil
}

// mergePerLink unions each link's (possibly overlapping) downtime
// intervals: a cut and an independent failure can overlap, but the link is
// simply down for the union.
func mergePerLink(downs []tickets.Downtime) map[string][]interval {
	byLink := make(map[string][]interval)
	for _, d := range downs {
		byLink[d.Link] = append(byLink[d.Link], interval{d.Start, d.End})
	}
	for link, ivs := range byLink {
		byLink[link] = mergeIntervals(ivs)
	}
	return byLink
}

func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	out := []interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// edgeOutages returns the intervals during which every one of the edge's
// links (indices into topo.Links) is simultaneously down — the §6
// definition of edge failure — given each link's merged downtime.
func edgeOutages(topo *backbone.Topology, links []int, merged map[string][]interval) []interval {
	if len(links) == 0 {
		return nil
	}
	// Sweep the +1/-1 boundaries of all links' merged intervals; the edge
	// is out while the down-counter equals the link count.
	type boundary struct {
		at    float64
		delta int
	}
	var bs []boundary
	for _, li := range links {
		for _, iv := range merged[topo.Links[li].Name] {
			bs = append(bs, boundary{iv.start, +1}, boundary{iv.end, -1})
		}
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].at != bs[j].at {
			return bs[i].at < bs[j].at
		}
		// Process openings before closings at equal times so zero-length
		// touches do not register as outages.
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
		if before == len(links) && downCount < len(links) {
			if b.at > outageStart {
				out = append(out, interval{outageStart, b.at})
			}
		}
	}
	return out
}

// metric names one per-edge or per-vendor value each reads.
type metric int

const (
	edgeMTBF metric = iota
	edgeMTTR
	edgeAvailability
	edgeFailureRateMTBF
	edgeRisk
	vendorMTBF
	vendorMTTR
)

// each calls fn with the name and value of every edge (in inventory
// order) or vendor (in VendorProfiles order) that m measures.
func (a *InterAnalysis) each(m metric, fn func(name string, v float64)) {
	if m >= vendorMTBF {
		for _, v := range a.vendors {
			switch {
			case v.failures == 0:
			case m == vendorMTBF:
				fn(v.name, v.mtbf(a.WindowHours))
			default:
				fn(v.name, v.mttr())
			}
		}
		return
	}
	for _, e := range a.edges {
		n := len(e.outages)
		switch {
		case m == edgeAvailability:
			fn(e.name, 1-e.downHours/a.WindowHours)
		case m == edgeRisk:
			fn(e.name, e.downHours/a.WindowHours)
		case n == 0:
		case m == edgeMTTR:
			fn(e.name, e.downHours/float64(n))
		case m == edgeFailureRateMTBF:
			fn(e.name, a.WindowHours/float64(n))
		case m == edgeMTBF && n >= 2:
			first, last := e.outages[0].start, e.outages[n-1].start
			fn(e.name, (last-first)/float64(n-1))
		}
	}
}

// most is the most values each reads for m.
func (a *InterAnalysis) most(m metric) int {
	if m >= vendorMTBF {
		return len(a.vendors)
	}
	return len(a.edges)
}

// byName returns m as a name→value map.
func (a *InterAnalysis) byName(m metric) map[string]float64 {
	out := make(map[string]float64, a.most(m))
	a.each(m, func(name string, v float64) { out[name] = v })
	return out
}

// values returns m's values in each's order.
func (a *InterAnalysis) values(m metric) []float64 {
	out := make([]float64, 0, a.most(m))
	a.each(m, func(_ string, v float64) { out = append(out, v) })
	return out
}

// EdgeMTBF returns each edge's measured mean time between failures: the
// mean gap between consecutive outage starts. Estimating time *between*
// failures needs at least two outages in the window; edges with fewer are
// omitted (their MTBF is not measurable from this window).
func (a *InterAnalysis) EdgeMTBF() map[string]float64 { return a.byName(edgeMTBF) }

// EdgeAvailability returns each edge's measured availability over the
// observation window: the fraction of the window during which at least one
// of its backbone links was up (1 − total outage time / window). Every
// edge in the inventory is reported; an edge with no outages reads 1.
// This is the §6 availability signal the sweep engine aggregates into
// cross-run bands.
func (a *InterAnalysis) EdgeAvailability() map[string]float64 { return a.byName(edgeAvailability) }

// EdgeMTTR returns each edge's mean outage duration in hours.
func (a *InterAnalysis) EdgeMTTR() map[string]float64 { return a.byName(edgeMTTR) }

// isolated reports whether a downtime record is attributable to the
// vendor's own link (equipment fault or vendor maintenance) rather than a
// correlated edge-severing cut. Cuts affect every link of an edge at once
// regardless of operator, so the per-vendor reliability comparison (§6.2)
// uses only isolated records.
func isolated(d tickets.Downtime) bool { return d.Maintenance }

// VendorMTBF returns each vendor's measured link MTBF: the vendor's total
// link observation hours divided by its isolated link failure count.
// Vendors with no isolated failures are omitted.
func (a *InterAnalysis) VendorMTBF() map[string]float64 { return a.byName(vendorMTBF) }

// VendorMTTR returns each vendor's mean repair duration in hours over its
// isolated link failures.
func (a *InterAnalysis) VendorMTTR() map[string]float64 { return a.byName(vendorMTTR) }

// Curve converts a name→value metric into its percentile curve (the solid
// lines of Figures 15–18): X is the fraction of entries with that value or
// lower, Y the value.
func Curve(metric map[string]float64) []stats.Point {
	vals := make([]float64, 0, len(metric))
	for _, v := range metric {
		vals = append(vals, v)
	}
	return stats.PercentileCurve(vals)
}

// FitCurve fits the exponential model y = A·e^(B·p) to a metric's
// percentile curve — the §6.1 modeling method (least squares, with R²
// reported in the original space).
func FitCurve(metric map[string]float64) (stats.ExpFit, error) {
	return stats.FitExponential(Curve(metric))
}

// ContinentStats is one row of Table 4.
type ContinentStats struct {
	// Share is the continent's fraction of all edges.
	Share float64
	// MTBF and MTTR are hour-means over the continent's edges.
	MTBF, MTTR float64
}

// EdgeFailureRateMTBF returns the rate-based per-edge MTBF estimate:
// observation window over outage count, for edges with at least one
// outage. Unlike EdgeMTBF's inter-arrival estimate (used for the Figure 15
// percentile curve, where a continuous statistic matters), the rate
// estimator is unbiased for low-failure-rate edges, which is what the
// Table 4 continent comparison needs — conditioning on two-plus outages
// would systematically understate the most reliable continents.
func (a *InterAnalysis) EdgeFailureRateMTBF() map[string]float64 {
	return a.byName(edgeFailureRateMTBF)
}

// ByContinent returns Table 4 using pooled per-continent estimators:
// MTBF is the continent's total edge observation time over its total
// outage count, and MTTR its total outage time over the outage count.
// Pooling avoids the convexity bias of averaging per-edge window/n values
// (an edge with a single outage would otherwise contribute the whole
// window and inflate the most reliable continents).
func (a *InterAnalysis) ByContinent() map[backbone.Continent]ContinentStats {
	type agg struct {
		edges     int
		outages   int
		downHours float64
	}
	// Summing in inventory order keeps MTTR's last bits reproducible.
	aggs := make(map[backbone.Continent]agg, len(backbone.Continents))
	for _, e := range a.edges {
		g := aggs[e.continent]
		g.edges++
		g.outages += len(e.outages)
		g.downHours += e.downHours
		aggs[e.continent] = g
	}
	out := make(map[backbone.Continent]ContinentStats, len(aggs))
	for cont, g := range aggs {
		s := ContinentStats{Share: float64(g.edges) / float64(len(a.edges))}
		if g.outages > 0 {
			s.MTBF = float64(g.edges) * a.WindowHours / float64(g.outages)
			s.MTTR = g.downHours / float64(g.outages)
		}
		out[cont] = s
	}
	return out
}

// ConditionalRisk returns the probability that an edge is unavailable at a
// random instant, estimated per edge as total outage time over the window.
// Facebook plans edge and link capacity to tolerate the 99.99th percentile
// of conditional risk (§6.1); PlanRisk returns that percentile across
// edges.
func (a *InterAnalysis) ConditionalRisk() map[string]float64 { return a.byName(edgeRisk) }

// PlanRisk returns the p-th percentile of conditional risk across edges.
func (a *InterAnalysis) PlanRisk(p float64) (float64, error) {
	ps, err := stats.SelectPercentiles(a.values(edgeRisk), p)
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

// LinkFailureCount returns the raw number of ticket intervals — the
// "tens of thousands of real world events" scale check of §6.
func (a *InterAnalysis) LinkFailureCount() int { return a.intervals }

// VendorProfile is one fiber vendor's measured reliability record (§6.2).
type VendorProfile struct {
	// Vendor is the vendor name.
	Vendor string
	// Links is how many backbone links the vendor operates.
	Links int
	// Failures counts the vendor's isolated link failures in the window.
	Failures int
	// MTBF and MTTR are the measured per-vendor values in hours (zero
	// when the vendor had no isolated failures).
	MTBF, MTTR float64
}

// VendorProfiles returns every vendor's record, most reliable (longest
// MTBF) first — the §6.2 ranking whose top entry the paper notes operates
// "in a big city in the USA".
func (a *InterAnalysis) VendorProfiles() []VendorProfile {
	profiles := make([]VendorProfile, 0, len(a.vendors))
	for _, v := range a.vendors {
		if v.links == 0 {
			continue // named only in downtime records, not an operator
		}
		p := VendorProfile{Vendor: v.name, Links: v.links, Failures: v.failures}
		if v.failures > 0 {
			p.MTBF, p.MTTR = v.mtbf(a.WindowHours), v.mttr()
		}
		profiles = append(profiles, p)
	}
	return profiles
}
