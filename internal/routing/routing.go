// Package routing computes equal-cost multi-path (ECMP) routes over the
// data center topology and the per-device load they induce.
//
// The paper's operational arguments lean on routing behaviour throughout:
// slow repairs "mean fewer switches to route requests ... and more
// congestion in the network" (§3.1), incidents manifest as "increased
// latency from congested links" (§4.2), and capacity loss shifts traffic
// onto surviving devices (the SEV2 example). This package makes those
// effects computable: given a set of failed devices and a demand matrix, it
// routes each demand across the surviving equal-cost shortest paths
// (fractionally, as hashed flows balance in aggregate) and reports load,
// utilization, and unroutable demands.
package routing

import (
	"fmt"
	"sort"

	"dcnr/internal/topology"
)

// Demand is a directed traffic demand between two devices, in Gb/s.
type Demand struct {
	Src, Dst string
	Gbps     float64
}

// Load maps device name → Gb/s transiting the device (including at the
// source and destination).
type Load map[string]float64

// Router routes demands over a Network with some devices down. The zero
// value is unusable; construct with New.
type Router struct {
	net  *topology.Network
	down map[string]bool
}

// New returns a Router over net with every device up.
func New(net *topology.Network) *Router {
	return &Router{net: net, down: map[string]bool{}}
}

// SetDown replaces the failed-device set. A nil map means all up.
func (r *Router) SetDown(down map[string]bool) {
	if down == nil {
		down = map[string]bool{}
	}
	r.down = down
}

// Down reports whether the named device is currently failed.
func (r *Router) Down(name string) bool { return r.down[name] }

// distances returns BFS hop counts from dst over up devices (reverse
// distances: the ECMP DAG toward dst follows strictly decreasing values).
func (r *Router) distances(dst string) map[string]int {
	if r.down[dst] || r.net.Device(dst) == nil {
		return nil
	}
	dist := map[string]int{dst: 0}
	queue := []string{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range r.net.Neighbors(cur) {
			if r.down[nb] {
				continue
			}
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = dist[cur] + 1
			queue = append(queue, nb)
		}
	}
	return dist
}

// NextHops returns the ECMP next hops from cur toward dst: the up
// neighbors one hop closer to dst, sorted for determinism. It returns nil
// when dst is unreachable from cur.
func (r *Router) NextHops(cur, dst string) []string {
	dist := r.distances(dst)
	d, ok := dist[cur]
	if !ok || r.down[cur] {
		return nil
	}
	var hops []string
	for _, nb := range r.net.Neighbors(cur) {
		if nd, ok := dist[nb]; ok && nd == d-1 {
			hops = append(hops, nb)
		}
	}
	sort.Strings(hops)
	return hops
}

// Distance returns the shortest-path hop count from src to dst over up
// devices, or -1 when dst is unreachable. With ECMP every used path has
// this length, so it doubles as the latency proxy: failures that force
// traffic around a dead layer lengthen it.
func (r *Router) Distance(src, dst string) int {
	dist := r.distances(dst)
	d, ok := dist[src]
	if !ok || r.down[src] {
		return -1
	}
	return d
}

// Path returns one deterministic shortest path (lowest-name next hop at
// each step), or nil if dst is unreachable.
func (r *Router) Path(src, dst string) []string {
	dist := r.distances(dst)
	if _, ok := dist[src]; !ok || r.down[src] {
		return nil
	}
	path := []string{src}
	cur := src
	for cur != dst {
		hops := r.nextHopsWithDist(cur, dist)
		if len(hops) == 0 {
			return nil
		}
		cur = hops[0]
		path = append(path, cur)
	}
	return path
}

func (r *Router) nextHopsWithDist(cur string, dist map[string]int) []string {
	d, ok := dist[cur]
	if !ok {
		return nil
	}
	var hops []string
	for _, nb := range r.net.Neighbors(cur) {
		if nd, ok := dist[nb]; ok && nd == d-1 {
			hops = append(hops, nb)
		}
	}
	sort.Strings(hops)
	return hops
}

// Route routes every demand across its ECMP DAG, splitting flow equally at
// each hop, and returns the accumulated per-device load plus the demands
// that could not be routed (source or destination down or partitioned).
func (r *Router) Route(demands []Demand) (Load, []Demand) {
	load := make(Load)
	var unroutable []Demand
	for _, dm := range demands {
		if !r.routeOne(dm, load) {
			unroutable = append(unroutable, dm)
		}
	}
	return load, unroutable
}

// routeOne spreads dm.Gbps over the ECMP DAG toward dm.Dst. Flow through
// each device is accumulated into load. Reports false if unroutable.
func (r *Router) routeOne(dm Demand, load Load) bool {
	if dm.Gbps < 0 {
		return false
	}
	dist := r.distances(dm.Dst)
	if _, ok := dist[dm.Src]; !ok || r.down[dm.Src] {
		return false
	}
	if dm.Src == dm.Dst {
		load[dm.Src] += dm.Gbps
		return true
	}
	// Propagate flow down the DAG in decreasing-distance order. flow[v]
	// is the traffic arriving at v.
	flow := map[string]float64{dm.Src: dm.Gbps}
	// Process devices ordered by distance, farthest first; within a
	// distance, name order for determinism.
	order := []string{dm.Src}
	seen := map[string]bool{dm.Src: true}
	for i := 0; i < len(order); i++ {
		cur := order[i]
		for _, nb := range r.nextHopsWithDist(cur, dist) {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, nb)
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if dist[order[i]] != dist[order[j]] {
			return dist[order[i]] > dist[order[j]]
		}
		return order[i] < order[j]
	})
	for _, cur := range order {
		f := flow[cur]
		if f == 0 {
			continue
		}
		load[cur] += f
		if cur == dm.Dst {
			continue
		}
		hops := r.nextHopsWithDist(cur, dist)
		if len(hops) == 0 {
			return false
		}
		share := f / float64(len(hops))
		for _, nb := range hops {
			flow[nb] += share
		}
	}
	return true
}

// DefaultCapacity returns a device type's forwarding capacity in Gb/s. It
// reflects the bisection-bandwidth ordering of Figure 1's hierarchy: rack
// switches terminate the least traffic, core devices the most.
func DefaultCapacity(t topology.DeviceType) float64 {
	switch t {
	case topology.Core:
		return 6400
	case topology.CSA, topology.ESW:
		return 3200
	case topology.SSW, topology.CSW:
		return 1600
	case topology.FSW:
		return 800
	default: // RSW, BBR
		return 480
	}
}

// Utilization converts a Load into per-device utilization fractions under
// DefaultCapacity. Unknown devices are skipped.
func (r *Router) Utilization(load Load) map[string]float64 {
	out := make(map[string]float64, len(load))
	for name, gbps := range load {
		d := r.net.Device(name)
		if d == nil {
			continue
		}
		out[name] = gbps / DefaultCapacity(d.Type)
	}
	return out
}

// Congested returns the devices whose utilization meets or exceeds the
// threshold, sorted by descending utilization then name.
func Congested(util map[string]float64, threshold float64) []string {
	var names []string
	for name, u := range util {
		if u >= threshold {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if util[names[i]] != util[names[j]] {
			return util[names[i]] > util[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// MaxUtilization returns the highest utilization and the device carrying
// it ("" and 0 for an empty report).
func MaxUtilization(util map[string]float64) (string, float64) {
	best, bestU := "", 0.0
	for name, u := range util {
		if u > bestU || (u == bestU && (best == "" || name < best)) {
			best, bestU = name, u
		}
	}
	return best, bestU
}

// Validate sanity-checks a demand list against the network.
func Validate(net *topology.Network, demands []Demand) error {
	for i, dm := range demands {
		if net.Device(dm.Src) == nil {
			return fmt.Errorf("routing: demand %d has unknown src %q", i, dm.Src)
		}
		if net.Device(dm.Dst) == nil {
			return fmt.Errorf("routing: demand %d has unknown dst %q", i, dm.Dst)
		}
		if dm.Gbps < 0 {
			return fmt.Errorf("routing: demand %d has negative volume", i)
		}
	}
	return nil
}
