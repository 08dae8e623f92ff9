// Package wan models the cross-data-center backbone of §3.2: regions
// interconnected by optical capacity that is "partitioned in the optical
// layer in four planes where each plane has one backbone router per data
// center", with inter data center traffic "managed by software systems
// where centralized traffic engineering is employed".
//
// The traffic engineer spreads each region-pair demand across the up
// links of the four planes; when fiber cuts remove direct capacity it
// reroutes overflow through intermediate regions — the paper's "more
// common result of fiber cuts [is] the loss of capacity ... we have to
// reroute the traffic using other available links, which could increase
// end-to-end latency". Only when every path is exhausted does traffic
// drop, which is why the paper reports no catastrophic partitions.
package wan

import (
	"errors"
	"fmt"
	"sort"
)

// Planes is the optical-plane count §3.2 reports.
const Planes = 4

// linkGbps is the capacity of one region-pair link within one plane.
const linkGbps float64 = 400

// Config sizes a backbone.
type Config struct {
	// Regions are the data center regions, at least two.
	Regions []string
}

// linkKey identifies one plane's link between a region pair (unordered).
type linkKey struct {
	a, b  string
	plane int
}

func newLinkKey(a, b string, plane int) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b, plane: plane}
}

// Backbone is the engineered WAN.
type Backbone struct {
	regions []string
	down    map[linkKey]bool
}

// New validates cfg and returns a fully-up Backbone.
func New(cfg Config) (*Backbone, error) {
	if len(cfg.Regions) < 2 {
		return nil, errors.New("wan: need at least two regions")
	}
	seen := map[string]bool{}
	for _, r := range cfg.Regions {
		if r == "" || seen[r] {
			return nil, fmt.Errorf("wan: empty or duplicate region %q", r)
		}
		seen[r] = true
	}
	regions := append([]string(nil), cfg.Regions...)
	sort.Strings(regions)
	return &Backbone{
		regions: regions,
		down:    map[linkKey]bool{},
	}, nil
}

// Regions returns the region names, sorted.
func (b *Backbone) Regions() []string { return append([]string(nil), b.regions...) }

// Planes returns the optical plane count.
func (b *Backbone) Planes() int { return Planes }

func (b *Backbone) validRegion(r string) bool {
	i := sort.SearchStrings(b.regions, r)
	return i < len(b.regions) && b.regions[i] == r
}

// SetLinkDown marks one plane's link between two regions down (a fiber
// cut) or up (repaired).
func (b *Backbone) SetLinkDown(a, r string, plane int, isDown bool) error {
	if !b.validRegion(a) || !b.validRegion(r) || a == r {
		return fmt.Errorf("wan: invalid region pair %q-%q", a, r)
	}
	if plane < 0 || plane >= Planes {
		return fmt.Errorf("wan: plane %d outside [0, %d)", plane, Planes)
	}
	key := newLinkKey(a, r, plane)
	if isDown {
		b.down[key] = true
	} else {
		delete(b.down, key)
	}
	return nil
}

// UpPlanes returns how many planes still connect the region pair directly.
func (b *Backbone) UpPlanes(a, r string) int {
	n := 0
	for p := 0; p < Planes; p++ {
		if !b.down[newLinkKey(a, r, p)] {
			n++
		}
	}
	return n
}

// Demand is a region-pair traffic demand in Gb/s.
type Demand struct {
	From, To string
	Gbps     float64
}

// FlowResult records how one demand was carried.
type FlowResult struct {
	Demand Demand
	// DirectGbps went over surviving direct links.
	DirectGbps float64
	// ReroutedGbps took a two-hop detour through Via.
	ReroutedGbps float64
	// Via is the intermediate region used for rerouting ("" if none).
	Via string
	// DroppedGbps found no capacity at all.
	DroppedGbps float64
}

// Delivered returns the volume that arrived (directly or rerouted).
func (f FlowResult) Delivered() float64 { return f.DirectGbps + f.ReroutedGbps }

// Report is the traffic-engineering outcome for a demand set.
type Report struct {
	Flows []FlowResult
	// Utilization maps "regionA-regionB/planeN" to link utilization.
	Utilization map[string]float64
	// TotalGbps, ReroutedGbps, DroppedGbps aggregate the flows.
	TotalGbps, ReroutedGbps, DroppedGbps float64
	// MeanPathHops is the delivered-volume-weighted mean hop count: 1.0
	// when everything goes direct, approaching 2.0 as rerouting grows —
	// the latency proxy for §3.2's "could increase end-to-end latency".
	MeanPathHops float64
}

// Engineer routes demands across the planes: direct links first (splitting
// over surviving planes), then two-hop detours through the intermediate
// region with the most spare capacity, then drop. Capacity is consumed
// demand by demand in input order — the deterministic greedy the central
// controller applies.
func (b *Backbone) Engineer(demands []Demand) (Report, error) {
	residual := map[linkKey]float64{}
	for i, a := range b.regions {
		for _, r := range b.regions[i+1:] {
			for p := 0; p < Planes; p++ {
				key := newLinkKey(a, r, p)
				if !b.down[key] {
					residual[key] = linkGbps
				}
			}
		}
	}

	rep := Report{Utilization: map[string]float64{}}
	var hopVolume, deliveredVolume float64
	for _, dm := range demands {
		if !b.validRegion(dm.From) || !b.validRegion(dm.To) || dm.From == dm.To {
			return Report{}, fmt.Errorf("wan: invalid demand %+v", dm)
		}
		if dm.Gbps < 0 {
			return Report{}, fmt.Errorf("wan: negative demand %+v", dm)
		}
		flow := FlowResult{Demand: dm}
		remaining := dm.Gbps

		// Direct: drain surviving planes in order.
		flow.DirectGbps = b.takePair(residual, dm.From, dm.To, remaining)
		remaining -= flow.DirectGbps

		// Reroute: pick the intermediate with the most usable two-hop
		// capacity; a detour consumes capacity on both hops.
		if remaining > 1e-12 {
			via, avail := b.bestDetour(residual, dm.From, dm.To)
			if via != "" && avail > 0 {
				take := remaining
				if take > avail {
					take = avail
				}
				got1 := b.takePair(residual, dm.From, via, take)
				// take ≤ min(leg1, leg2), so the second hop matches the
				// first; count the min defensively anyway.
				got2 := b.takePair(residual, via, dm.To, got1)
				flow.ReroutedGbps = got2
				flow.Via = via
				remaining -= got2
			}
		}
		if remaining > 1e-12 {
			flow.DroppedGbps = remaining
		}

		rep.Flows = append(rep.Flows, flow)
		rep.TotalGbps += dm.Gbps
		rep.ReroutedGbps += flow.ReroutedGbps
		rep.DroppedGbps += flow.DroppedGbps
		hopVolume += flow.DirectGbps + 2*flow.ReroutedGbps
		deliveredVolume += flow.Delivered()
	}
	if deliveredVolume > 0 {
		rep.MeanPathHops = hopVolume / deliveredVolume
	}
	for i, a := range b.regions {
		for _, r := range b.regions[i+1:] {
			for p := 0; p < Planes; p++ {
				key := newLinkKey(a, r, p)
				if b.down[key] {
					continue
				}
				used := linkGbps - residual[key]
				rep.Utilization[fmt.Sprintf("%s-%s/plane%d", key.a, key.b, p)] = used / linkGbps
			}
		}
	}
	return rep, nil
}

// takePair drains up to want Gb/s from the pair's planes (in plane order)
// and returns how much it got.
func (b *Backbone) takePair(residual map[linkKey]float64, a, r string, want float64) float64 {
	got := 0.0
	for p := 0; p < Planes && want-got > 1e-12; p++ {
		key := newLinkKey(a, r, p)
		avail := residual[key]
		if avail <= 0 {
			continue
		}
		take := want - got
		if take > avail {
			take = avail
		}
		residual[key] -= take
		got += take
	}
	return got
}

// pairCapacity sums the pair's residual across planes.
func (b *Backbone) pairCapacity(residual map[linkKey]float64, a, r string) float64 {
	total := 0.0
	for p := 0; p < Planes; p++ {
		total += residual[newLinkKey(a, r, p)]
	}
	return total
}

// bestDetour returns the intermediate region with the largest usable
// two-hop capacity (the min of its two legs), ties broken by name.
func (b *Backbone) bestDetour(residual map[linkKey]float64, from, to string) (string, float64) {
	best, bestAvail := "", 0.0
	for _, via := range b.regions {
		if via == from || via == to {
			continue
		}
		leg1 := b.pairCapacity(residual, from, via)
		leg2 := b.pairCapacity(residual, via, to)
		avail := leg1
		if leg2 < avail {
			avail = leg2
		}
		if avail > bestAvail {
			best, bestAvail = via, avail
		}
	}
	return best, bestAvail
}
