package dcnr

import (
	"testing"
)

func TestReferenceTopology(t *testing.T) {
	net, err := ReferenceTopology()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumDevices() == 0 {
		t.Fatal("empty reference topology")
	}
	for _, dt := range IntraDCTypes {
		if len(net.DevicesOfType(dt)) == 0 {
			t.Errorf("no %v devices", dt)
		}
	}
}

func TestBuildHelpersCompose(t *testing.T) {
	n := NewNetwork()
	c1, err := BuildCluster(n, ClusterSpec{DC: "dc1", Region: "r", Clusters: 1, RacksPerCluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildFabric(n, FabricSpec{DC: "dc2", Region: "r", Pods: 1, RacksPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := InterconnectCores(n, c1, c2); err != nil {
		t.Fatal(err)
	}
	if !n.Reachable(c1[0], c2[0], nil) {
		t.Error("cores not interconnected")
	}
}

func TestTrafficFacade(t *testing.T) {
	net, err := ReferenceTopology()
	if err != nil {
		t.Fatal(err)
	}
	demands, err := GenerateTraffic(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) == 0 {
		t.Fatal("no demands")
	}
	rep := StudyTraffic(net, demands, nil)
	if rep.TotalGbps <= 0 || rep.UnroutableGbps != 0 {
		t.Errorf("healthy study: %+v", rep)
	}
	r := NewRouter(net)
	load, unroutable := r.Route(demands)
	if len(unroutable) != 0 || len(load) == 0 {
		t.Error("router facade broken")
	}
	re := Reassign(net, demands, map[string]bool{net.DevicesOfType(Core)[0].Name: true})
	if len(re) != len(demands) {
		t.Error("Reassign changed demand count")
	}
}

func TestImpactFacade(t *testing.T) {
	net, err := ReferenceTopology()
	if err != nil {
		t.Fatal(err)
	}
	assessor := NewImpactAssessor(net)
	csw := net.DevicesOfType(CSW)[0].Name
	as, err := assessor.Assess(csw, ScopeDevice)
	if err != nil {
		t.Fatal(err)
	}
	if as.Severity != Sev3 {
		t.Errorf("isolated CSW failure = %v", as.Severity)
	}
	as, err = assessor.Assess(csw, ScopeUnit)
	if err != nil {
		t.Fatal(err)
	}
	if as.Severity != Sev1 {
		t.Errorf("CSW cascade = %v", as.Severity)
	}
}

func TestMaintenanceFacade(t *testing.T) {
	net, err := ReferenceTopology()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewMaintenanceScheduler(NewImpactAssessor(net), 7)
	if err != nil {
		t.Fatal(err)
	}
	sched.MishapProb = 1
	var group []string
	unit := net.DevicesOfType(CSW)[0].Unit
	for _, d := range net.DevicesOfType(CSW) {
		if d.Unit == unit {
			group = append(group, d.Name)
		}
	}
	drained, err := sched.RollingMaintenance(group, DrainFirst)
	if err != nil {
		t.Fatal(err)
	}
	undrained, err := sched.RollingMaintenance(group, NoDrain)
	if err != nil {
		t.Fatal(err)
	}
	if drained.IncidentCount() != 0 || undrained.IncidentCount() == 0 {
		t.Errorf("drain ablation: drained=%d undrained=%d",
			drained.IncidentCount(), undrained.IncidentCount())
	}
}

func TestConfigFacade(t *testing.T) {
	guarded, err := ConfigBlastStudy(NewConfigGuard(10), 500, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	unguarded, err := ConfigBlastStudy(UnguardedConfig(), 500, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if guarded >= unguarded {
		t.Errorf("guard did not reduce blast: %v vs %v", guarded, unguarded)
	}
}

func TestDrillFacade(t *testing.T) {
	net, err := ReferenceTopology()
	if err != nil {
		t.Fatal(err)
	}
	demands, err := GenerateTraffic(net, 9)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewDrillRunner(net, demands)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := DataCenterDisconnect(net, "dc1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("DC disconnect passed default criteria")
	}
	scenarios, err := StandardDrills(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) < len(IntraDCTypes) {
		t.Errorf("standard drills = %d", len(scenarios))
	}
}

func TestWANFacade(t *testing.T) {
	bb, err := NewWANBackbone(WANConfig{Regions: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < bb.Planes(); p++ {
		if err := bb.SetLinkDown("a", "b", p, true); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := bb.Engineer([]WANDemand{{From: "a", To: "b", Gbps: 100}})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Flows[0]
	if f.ReroutedGbps != 100 || f.Via != "c" {
		t.Errorf("flow = %+v, want full reroute via c", f)
	}
}

func TestCapacityFacade(t *testing.T) {
	u, err := DeviceUnavailability(39495, 30)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ProvisionGroup(7, u, FourNines)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Provision != 8 {
		t.Errorf("plan = %+v, want the paper's 8 cores", plan)
	}
	risk, err := GroupRisk(8, 1, u)
	if err != nil {
		t.Fatal(err)
	}
	if risk >= FourNines {
		t.Errorf("8-core risk %v above four-nines target", risk)
	}
}

func TestReviewFacade(t *testing.T) {
	r := SEVReport{
		Severity: Sev3, Device: "rsw001.cl001.dc1.ra",
		Start: 1, Duration: 1, Resolution: 2, Year: 2017,
		Title: "x", Impact: "y",
	}
	if issues := CompletenessIssues(&r); len(issues) != 0 {
		t.Errorf("complete report flagged: %v", issues)
	}
	store := NewSEVStore()
	id, err := store.Add(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Publish(id, "reviewer"); err != nil {
		t.Fatal(err)
	}
}
