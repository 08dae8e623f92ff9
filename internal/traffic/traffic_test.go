package traffic

import (
	"testing"

	"dcnr/internal/fleet"
	"dcnr/internal/routing"
	"dcnr/internal/simrand"
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

func TestGenerateValidDemands(t *testing.T) {
	net := testNet(t)
	demands, err := Generate(net, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) != len(net.DevicesOfType(topology.RSW)) {
		t.Errorf("demands = %d, want one per rack", len(demands))
	}
	if err := routing.Validate(net, demands); err != nil {
		t.Fatal(err)
	}
	for _, dm := range demands {
		if dm.Gbps <= 0 {
			t.Fatalf("non-positive demand %+v", dm)
		}
	}
}

func TestGenerateTrafficClasses(t *testing.T) {
	net := testNet(t)
	demands, err := Generate(net, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var ingress, egress int
	var ingressVol, egressVol float64
	for _, dm := range demands {
		srcType, _ := topology.ParseDeviceName(dm.Src)
		if srcType == topology.Core {
			ingress++ // user-facing: core → rack
			ingressVol += dm.Gbps
		} else {
			egress++ // bulk / realtime: rack → core
			egressVol += dm.Gbps
		}
	}
	if ingress == 0 || egress == 0 {
		t.Fatalf("one-sided matrix: ingress=%d egress=%d", ingress, egress)
	}
	// §3.2: cross-DC bulk dominates by volume.
	if egressVol <= ingressVol {
		t.Errorf("bulk volume %v should exceed user-facing %v", egressVol, ingressVol)
	}
}

func TestGenerateValidation(t *testing.T) {
	empty := topology.NewNetwork()
	if _, err := Generate(empty, simrand.New(1)); err == nil {
		t.Error("rackless network accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	net := testNet(t)
	a, err := Generate(net, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(net, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("demand %d differs", i)
		}
	}
}

func TestStudyHealthyHasNoLoss(t *testing.T) {
	net := testNet(t)
	demands, err := Generate(net, simrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rep := Study(net, demands, nil)
	if rep.UnroutableGbps != 0 {
		t.Errorf("healthy network lost %v Gb/s", rep.UnroutableGbps)
	}
	if rep.TotalGbps <= 0 || rep.MaxUtilization <= 0 {
		t.Errorf("empty report: %+v", rep)
	}
	if rep.LostFraction() != 0 {
		t.Errorf("LostFraction = %v", rep.LostFraction())
	}
}

func TestFailureIncreasesPeakUtilization(t *testing.T) {
	// §3.1: losing switches concentrates traffic on the survivors.
	net := testNet(t)
	demands, err := Generate(net, simrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// Fail 2 of the 4 CSWs in one cluster: its racks still route, but the
	// two survivors carry double the load.
	csws := net.DevicesOfType(topology.CSW)
	unit := csws[0].Unit
	var group []string
	for _, c := range csws {
		if c.Unit == unit {
			group = append(group, c.Name)
		}
	}
	if len(group) != 4 {
		t.Fatalf("cluster CSW group = %v", group)
	}
	down := map[string]bool{group[0]: true, group[1]: true}

	survivorPeak := func(down map[string]bool) float64 {
		r := routing.New(net)
		r.SetDown(down)
		load, unroutable := r.Route(demands)
		if len(unroutable) != 0 {
			t.Fatalf("unroutable with half a CSW group down: %v", unroutable)
		}
		util := r.Utilization(load)
		peak := 0.0
		for _, name := range group[2:] {
			if util[name] > peak {
				peak = util[name]
			}
		}
		return peak
	}
	before := survivorPeak(nil)
	after := survivorPeak(down)
	if after <= before {
		t.Errorf("surviving CSW utilization did not rise: %.4f → %.4f", before, after)
	}
	// With half the group gone, survivors carry roughly double.
	if after < 1.5*before {
		t.Errorf("survivor load rose only %.2fx, want ~2x", after/before)
	}
}

func TestStrandingFailureLosesVolume(t *testing.T) {
	net := testNet(t)
	demands, err := Generate(net, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Kill both CSAs: the whole cluster DC is cut off from its cores.
	down := map[string]bool{}
	for _, csa := range net.DevicesOfType(topology.CSA) {
		down[csa.Name] = true
	}
	rep := Study(net, demands, down)
	if rep.UnroutableGbps == 0 {
		t.Error("no lost volume despite a partitioned DC")
	}
	if rep.LostFraction() <= 0 || rep.LostFraction() >= 1 {
		t.Errorf("LostFraction = %v", rep.LostFraction())
	}
	if len(rep.Down) != 2 {
		t.Errorf("Down = %v", rep.Down)
	}
}

func BenchmarkStudyFullMatrix(b *testing.B) {
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		b.Fatal(err)
	}
	demands, err := Generate(net, simrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	down := map[string]bool{net.DevicesOfType(topology.CSW)[0].Name: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Study(net, demands, down)
	}
}

func TestReassignFailsOverToSurvivingCore(t *testing.T) {
	net := testNet(t)
	cores := net.DevicesOfType(topology.Core)
	var dc1Cores []string
	for _, c := range cores {
		if c.DC == "dc1" {
			dc1Cores = append(dc1Cores, c.Name)
		}
	}
	rsw := net.DevicesOfType(topology.RSW)[0].Name
	demands := []routing.Demand{{Src: rsw, Dst: dc1Cores[0], Gbps: 5}}
	down := map[string]bool{dc1Cores[0]: true}

	re := Reassign(net, demands, down)
	if re[0].Dst == dc1Cores[0] {
		t.Error("demand still targets the failed core")
	}
	if netDev := net.Device(re[0].Dst); netDev.DC != "dc1" || netDev.Type != topology.Core {
		t.Errorf("failover target %s not a dc1 core", re[0].Dst)
	}
	// Non-core endpoints are never retargeted.
	demands2 := []routing.Demand{{Src: rsw, Dst: dc1Cores[1], Gbps: 5}}
	re2 := Reassign(net, demands2, map[string]bool{rsw: true})
	if re2[0].Src != rsw {
		t.Error("non-core endpoint retargeted")
	}
	// All cores in the DC down: demand unchanged (and unroutable later).
	allDown := map[string]bool{}
	for _, c := range dc1Cores {
		allDown[c] = true
	}
	re3 := Reassign(net, demands, allDown)
	if re3[0].Dst != dc1Cores[0] {
		t.Error("demand retargeted despite no survivors")
	}
	// Single-core outage in a study loses nothing.
	full, err := Generate(net, simrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	rep := Study(net, full, map[string]bool{dc1Cores[0]: true})
	if rep.UnroutableGbps != 0 {
		t.Errorf("single core outage lost %v Gb/s despite failover", rep.UnroutableGbps)
	}
}

func TestMeanPathHops(t *testing.T) {
	net := testNet(t)
	demands, err := Generate(net, simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	rep := Study(net, demands, nil)
	// Cluster rack↔core paths are 3 hops, fabric 4: the volume-weighted
	// mean sits between.
	if rep.MeanPathHops < 3 || rep.MeanPathHops > 4 {
		t.Errorf("MeanPathHops = %v, want within [3, 4]", rep.MeanPathHops)
	}
	// A single CSW failure must not shorten paths.
	down := map[string]bool{net.DevicesOfType(topology.CSW)[0].Name: true}
	rep2 := Study(net, demands, down)
	if rep2.MeanPathHops < rep.MeanPathHops-1e-9 {
		t.Errorf("failure shortened paths: %v → %v", rep.MeanPathHops, rep2.MeanPathHops)
	}
}
