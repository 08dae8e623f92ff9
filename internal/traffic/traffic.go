// Package traffic generates demand matrices for the two traffic classes of
// §3.2 and studies how device failures reshape network load.
//
//   - User-facing traffic enters through the core layer (from the backbone
//     routers and edge presences) and fans out to the racks serving web and
//     cache tiers.
//   - Cross-data-center traffic is dominated by bulk transfer streams —
//     replication, distributed storage, batch processing — flowing from
//     storage/batch racks up through the cores toward other data centers.
//
// Combining these demands with the routing package turns the paper's
// qualitative congestion claims into measurements: fail a device, re-route,
// and compare utilization and unroutable volume.
package traffic

import (
	"fmt"
	"sort"

	"dcnr/internal/routing"
	"dcnr/internal/service"
	"dcnr/internal/simrand"
	"dcnr/internal/topology"
)

// Demand volumes. A web/cache rack draws 8 Gb/s of user-facing traffic on
// average and a storage/batch rack pushes 20 Gb/s of bulk transfer — by
// volume, cross data center traffic consists primarily of bulk data
// transfer streams (§3.2). Every volume is spread ±30% uniformly.
const (
	userFacingGbps float64 = 8
	crossDCGbps    float64 = 20
	jitterSpread   float64 = 0.3
)

// Generate builds the demand matrix for net. Rack roles follow the same
// round-robin service placement the impact assessor uses, so web/cache
// racks receive user-facing flows and storage/batch racks originate bulk
// flows. Demands terminate at core devices (the gateway to the backbone).
func Generate(net *topology.Network, rng *simrand.Stream) ([]routing.Demand, error) {
	racks := net.DevicesOfType(topology.RSW)
	if len(racks) == 0 {
		return nil, fmt.Errorf("traffic: network has no racks")
	}
	coresByDC := make(map[string][]string)
	var dcs []string
	for _, c := range net.DevicesOfType(topology.Core) {
		if len(coresByDC[c.DC]) == 0 {
			dcs = append(dcs, c.DC)
		}
		coresByDC[c.DC] = append(coresByDC[c.DC], c.Name)
	}
	if len(dcs) == 0 {
		return nil, fmt.Errorf("traffic: network has no core devices")
	}

	jitter := func(mean float64) float64 {
		return mean * (1 + jitterSpread*(2*rng.Float64()-1))
	}
	var demands []routing.Demand
	for i, rack := range racks {
		role := service.ServiceNames[i%len(service.ServiceNames)]
		cores := coresByDC[rack.DC]
		if len(cores) == 0 {
			continue
		}
		core := cores[rng.Intn(len(cores))]
		switch role {
		case "web", "cache":
			// User-facing: ingress from the backbone through a core
			// down to the serving rack.
			demands = append(demands, routing.Demand{
				Src: core, Dst: rack.Name, Gbps: jitter(userFacingGbps),
			})
		case "storage", "batch":
			// Cross-DC bulk: the rack pushes replication traffic up
			// through a core toward a remote region.
			demands = append(demands, routing.Demand{
				Src: rack.Name, Dst: core, Gbps: jitter(crossDCGbps),
			})
		default: // realtime: modest bidirectional stream
			demands = append(demands, routing.Demand{
				Src: rack.Name, Dst: core, Gbps: jitter(userFacingGbps / 2),
			})
		}
	}
	return demands, nil
}

// Report summarizes network load under one failure scenario.
type Report struct {
	// Down lists the failed devices.
	Down []string
	// MaxDevice and MaxUtilization locate the hottest device.
	MaxDevice      string
	MaxUtilization float64
	// Congested lists devices at or above the congestion threshold.
	Congested []string
	// UnroutableGbps is the demand volume that could not be carried.
	UnroutableGbps float64
	// TotalGbps is the full offered demand volume.
	TotalGbps float64
	// MeanPathHops is the delivered-volume-weighted mean hop count — the
	// latency proxy. Failures that force traffic around a dead layer
	// raise it ("increased latency from congested links", §4.2).
	MeanPathHops float64
}

// LostFraction is the share of offered volume that went undelivered.
func (r Report) LostFraction() float64 {
	if r.TotalGbps == 0 {
		return 0
	}
	return r.UnroutableGbps / r.TotalGbps
}

// CongestionThreshold marks a device as congested at ≥90% utilization.
const CongestionThreshold = 0.9

// Reassign retargets demands whose core endpoint is down to the first
// surviving core in the same data center — the failover that BGP and edge
// routing perform when a core device drops out (§5.2: eight cores per DC
// exist exactly so one can be lost "without any impact"). Demands with no
// surviving core in their DC are returned unchanged (and will be counted
// unroutable).
func Reassign(net *topology.Network, demands []routing.Demand, down map[string]bool) []routing.Demand {
	if len(down) == 0 {
		return demands
	}
	surviving := make(map[string]string) // DC -> first up core
	for _, c := range net.DevicesOfType(topology.Core) {
		if !down[c.Name] && surviving[c.DC] == "" {
			surviving[c.DC] = c.Name
		}
	}
	retarget := func(name string) string {
		if !down[name] {
			return name
		}
		d := net.Device(name)
		if d == nil || d.Type != topology.Core {
			return name
		}
		if alt := surviving[d.DC]; alt != "" {
			return alt
		}
		return name
	}
	out := make([]routing.Demand, len(demands))
	for i, dm := range demands {
		dm.Src = retarget(dm.Src)
		dm.Dst = retarget(dm.Dst)
		out[i] = dm
	}
	return out
}

// Study routes demands with the given devices failed and reports the
// resulting load picture. Demands addressed to failed cores fail over to
// surviving cores in the same data center first (see Reassign).
func Study(net *topology.Network, demands []routing.Demand, down map[string]bool) Report {
	demands = Reassign(net, demands, down)
	r := routing.New(net)
	r.SetDown(down)
	load, unroutable := r.Route(demands)
	util := r.Utilization(load)
	rep := Report{
		Congested: routing.Congested(util, CongestionThreshold),
	}
	for name := range down {
		rep.Down = append(rep.Down, name)
	}
	sort.Strings(rep.Down)
	rep.MaxDevice, rep.MaxUtilization = routing.MaxUtilization(util)
	unrouted := make(map[routing.Demand]bool, len(unroutable))
	for _, dm := range unroutable {
		rep.UnroutableGbps += dm.Gbps
		unrouted[dm] = true
	}
	hopVolume, delivered := 0.0, 0.0
	for _, dm := range demands {
		rep.TotalGbps += dm.Gbps
		if unrouted[dm] {
			continue
		}
		if hops := r.Distance(dm.Src, dm.Dst); hops >= 0 {
			hopVolume += float64(hops) * dm.Gbps
			delivered += dm.Gbps
		}
	}
	if delivered > 0 {
		rep.MeanPathHops = hopVolume / delivered
	}
	return rep
}
