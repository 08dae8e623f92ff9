package routing

import (
	"math"
	"testing"
	"testing/quick"

	"dcnr/internal/fleet"
	"dcnr/internal/topology"
)

func testNet(t *testing.T) *topology.Network {
	t.Helper()
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func first(t *testing.T, net *topology.Network, dt topology.DeviceType) string {
	t.Helper()
	ds := net.DevicesOfType(dt)
	if len(ds) == 0 {
		t.Fatalf("no %v", dt)
	}
	return ds[0].Name
}

func TestNextHopsHealthy(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	hops := r.NextHops(rsw, core)
	// A cluster RSW's next hops toward a core are its 4 CSWs.
	if len(hops) != 4 {
		t.Fatalf("next hops = %v", hops)
	}
	for _, h := range hops {
		if d := net.Device(h); d.Type != topology.CSW {
			t.Errorf("next hop %s is %v, want CSW", h, d.Type)
		}
	}
}

func TestNextHopsRespectFailures(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	all := r.NextHops(rsw, core)
	r.SetDown(map[string]bool{all[0]: true})
	reduced := r.NextHops(rsw, core)
	if len(reduced) != len(all)-1 {
		t.Fatalf("hops after failure = %v", reduced)
	}
	for _, h := range reduced {
		if h == all[0] {
			t.Error("failed device still a next hop")
		}
	}
}

func TestPathShortest(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	path := r.Path(rsw, core)
	// Cluster design: RSW → CSW → CSA → Core.
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	if path[0] != rsw || path[len(path)-1] != core {
		t.Errorf("path endpoints wrong: %v", path)
	}
	types := []topology.DeviceType{topology.RSW, topology.CSW, topology.CSA, topology.Core}
	for i, name := range path {
		if net.Device(name).Type != types[i] {
			t.Errorf("hop %d = %v, want %v", i, net.Device(name).Type, types[i])
		}
	}
}

func TestPathUnreachable(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	// Kill every CSW neighbor: the rack is stranded.
	down := map[string]bool{}
	for _, nb := range net.Neighbors(rsw) {
		down[nb] = true
	}
	r.SetDown(down)
	if p := r.Path(rsw, core); p != nil {
		t.Errorf("path through dead CSWs: %v", p)
	}
	if hops := r.NextHops(rsw, core); hops != nil {
		t.Errorf("next hops through dead CSWs: %v", hops)
	}
}

func TestRouteConservesFlowAtDestination(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	load, unroutable := r.Route([]Demand{{Src: rsw, Dst: core, Gbps: 40}})
	if len(unroutable) != 0 {
		t.Fatalf("unroutable = %v", unroutable)
	}
	if math.Abs(load[rsw]-40) > 1e-9 {
		t.Errorf("source load = %v, want 40", load[rsw])
	}
	if math.Abs(load[core]-40) > 1e-9 {
		t.Errorf("destination load = %v, want 40 (flow must reconverge)", load[core])
	}
}

func TestRouteSplitsAcrossECMP(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	load, _ := r.Route([]Demand{{Src: rsw, Dst: core, Gbps: 40}})
	// The 4 CSWs each carry a quarter.
	for _, nb := range net.Neighbors(rsw) {
		if math.Abs(load[nb]-10) > 1e-9 {
			t.Errorf("CSW %s load = %v, want 10", nb, load[nb])
		}
	}
}

func TestFailureShiftsLoadToSurvivors(t *testing.T) {
	// §3.1: fewer switches to route requests → higher load on the rest.
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	csws := net.Neighbors(rsw)
	load, _ := r.Route([]Demand{{Src: rsw, Dst: core, Gbps: 40}})
	before := load[csws[1]]

	r.SetDown(map[string]bool{csws[0]: true})
	load2, unroutable := r.Route([]Demand{{Src: rsw, Dst: core, Gbps: 40}})
	if len(unroutable) != 0 {
		t.Fatalf("unroutable after single CSW failure: %v", unroutable)
	}
	after := load2[csws[1]]
	if math.Abs(before-10) > 1e-9 || math.Abs(after-40.0/3) > 1e-9 {
		t.Errorf("survivor load %v → %v, want 10 → 13.33", before, after)
	}
	if load2[csws[0]] != 0 {
		t.Error("failed device carries load")
	}
}

func TestRouteUnroutableCases(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	r.SetDown(map[string]bool{rsw: true})
	_, unroutable := r.Route([]Demand{{Src: rsw, Dst: core, Gbps: 1}})
	if len(unroutable) != 1 {
		t.Error("demand from a failed source routed")
	}
	r.SetDown(nil)
	_, unroutable = r.Route([]Demand{{Src: rsw, Dst: core, Gbps: -1}})
	if len(unroutable) != 1 {
		t.Error("negative demand routed")
	}
}

func TestRouteSelfDemand(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	load, unroutable := r.Route([]Demand{{Src: rsw, Dst: rsw, Gbps: 5}})
	if len(unroutable) != 0 || load[rsw] != 5 {
		t.Errorf("self demand: load=%v unroutable=%v", load[rsw], unroutable)
	}
}

func TestFlowConservationProperty(t *testing.T) {
	// For random demands, destination load always equals the demand sum
	// of routable flows (ECMP splitting must not leak flow).
	net := testNet(t)
	racks := net.DevicesOfType(topology.RSW)
	cores := net.DevicesOfType(topology.Core)
	r := New(net)
	f := func(rackIdx, coreIdx uint8, gbps10 uint8) bool {
		src := racks[int(rackIdx)%len(racks)].Name
		dst := cores[int(coreIdx)%len(cores)].Name
		gbps := float64(gbps10) / 10
		load, unroutable := r.Route([]Demand{{Src: src, Dst: dst, Gbps: gbps}})
		if len(unroutable) != 0 {
			return false
		}
		return math.Abs(load[dst]-gbps) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationAndCongestion(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	// 480 Gb/s fills the RSW to exactly 1.0 under the default model.
	load, _ := r.Route([]Demand{{Src: rsw, Dst: core, Gbps: 480}})
	util := r.Utilization(load)
	if math.Abs(util[rsw]-1.0) > 1e-9 {
		t.Errorf("RSW utilization = %v, want 1.0", util[rsw])
	}
	congested := Congested(util, 0.9)
	if len(congested) == 0 || congested[0] != rsw {
		t.Errorf("congested = %v, want RSW first", congested)
	}
	name, u := MaxUtilization(util)
	if name != rsw || u != util[rsw] {
		t.Errorf("MaxUtilization = %s %v", name, u)
	}
	if n, u := MaxUtilization(nil); n != "" || u != 0 {
		t.Error("MaxUtilization of empty report")
	}
}

func TestDefaultCapacityOrdering(t *testing.T) {
	if !(DefaultCapacity(topology.Core) > DefaultCapacity(topology.CSA) &&
		DefaultCapacity(topology.CSA) > DefaultCapacity(topology.CSW) &&
		DefaultCapacity(topology.CSW) > DefaultCapacity(topology.RSW)) {
		t.Error("capacity must follow the bisection-bandwidth hierarchy")
	}
}

func TestValidate(t *testing.T) {
	net := testNet(t)
	rsw := first(t, net, topology.RSW)
	if err := Validate(net, []Demand{{Src: rsw, Dst: rsw, Gbps: 1}}); err != nil {
		t.Errorf("valid demand rejected: %v", err)
	}
	if err := Validate(net, []Demand{{Src: "ghost", Dst: rsw, Gbps: 1}}); err == nil {
		t.Error("unknown src accepted")
	}
	if err := Validate(net, []Demand{{Src: rsw, Dst: "ghost", Gbps: 1}}); err == nil {
		t.Error("unknown dst accepted")
	}
	if err := Validate(net, []Demand{{Src: rsw, Dst: rsw, Gbps: -1}}); err == nil {
		t.Error("negative volume accepted")
	}
}

func BenchmarkRouteSingleDemand(b *testing.B) {
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		b.Fatal(err)
	}
	r := New(net)
	src := net.DevicesOfType(topology.RSW)[0].Name
	dst := net.DevicesOfType(topology.Core)[0].Name
	demands := []Demand{{Src: src, Dst: dst, Gbps: 40}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, un := r.Route(demands); len(un) != 0 {
			b.Fatal("unroutable")
		}
	}
}

func TestDistance(t *testing.T) {
	net := testNet(t)
	r := New(net)
	rsw := first(t, net, topology.RSW)
	core := first(t, net, topology.Core)
	// Cluster design: RSW → CSW → CSA → Core = 3 hops.
	if got := r.Distance(rsw, core); got != 3 {
		t.Errorf("Distance = %d, want 3", got)
	}
	if got := r.Distance(rsw, rsw); got != 0 {
		t.Errorf("self distance = %d", got)
	}
	down := map[string]bool{}
	for _, nb := range net.Neighbors(rsw) {
		down[nb] = true
	}
	r.SetDown(down)
	if got := r.Distance(rsw, core); got != -1 {
		t.Errorf("stranded distance = %d, want -1", got)
	}
}
