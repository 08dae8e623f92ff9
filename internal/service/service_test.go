package service

import (
	"strings"
	"testing"

	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

func testAssessor(t *testing.T) (*Assessor, *topology.Network) {
	t.Helper()
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		t.Fatal(err)
	}
	return NewAssessor(net), net
}

func firstOfType(t *testing.T, net *topology.Network, dt topology.DeviceType) string {
	t.Helper()
	ds := net.DevicesOfType(dt)
	if len(ds) == 0 {
		t.Fatalf("no %v devices", dt)
	}
	return ds[0].Name
}

func TestScopeString(t *testing.T) {
	if ScopeDevice.String() != "device" || ScopeGroup.String() != "group" || ScopeUnit.String() != "unit" {
		t.Error("scope names wrong")
	}
	if !strings.Contains(Scope(9).String(), "9") {
		t.Error("unknown scope String")
	}
}

func TestUnknownDevice(t *testing.T) {
	a, _ := testAssessor(t)
	if _, err := a.Assess("ghost", ScopeDevice); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestInvalidScope(t *testing.T) {
	a, net := testAssessor(t)
	if _, err := a.Assess(firstOfType(t, net, topology.RSW), Scope(42)); err == nil {
		t.Error("invalid scope accepted")
	}
}

func TestSingleDeviceFailuresAreMasked(t *testing.T) {
	// §2: with built-in redundancy, isolated faults do not become
	// high-severity incidents, for any device type.
	a, net := testAssessor(t)
	for _, dt := range topology.IntraDCTypes {
		as, err := a.Assess(firstOfType(t, net, dt), ScopeDevice)
		if err != nil {
			t.Fatal(err)
		}
		if as.Severity != sev.Sev3 {
			t.Errorf("%v isolated failure → %v, want SEV3", dt, as.Severity)
		}
	}
}

func TestRSWFailureStrandsOneRack(t *testing.T) {
	a, net := testAssessor(t)
	as, err := a.Assess(firstOfType(t, net, topology.RSW), ScopeDevice)
	if err != nil {
		t.Fatal(err)
	}
	if as.StrandedRacks != 1 {
		t.Errorf("stranded = %d, want 1 (single-TOR design)", as.StrandedRacks)
	}
	if as.Severity != sev.Sev3 {
		t.Errorf("severity = %v; replication should absorb one rack", as.Severity)
	}
}

func TestGroupScopeEscalatesToSev2(t *testing.T) {
	// Half the redundancy group under load → service-affecting (the
	// paper's faulty-CSA SEV2 example).
	a, net := testAssessor(t)
	for _, dt := range []topology.DeviceType{topology.Core, topology.CSA, topology.CSW, topology.FSW} {
		as, err := a.Assess(firstOfType(t, net, dt), ScopeGroup)
		if err != nil {
			t.Fatal(err)
		}
		if as.Severity != sev.Sev2 {
			t.Errorf("%v group failure → %v (loss %.2f, stranded %d), want SEV2",
				dt, as.Severity, as.CapacityLoss, as.StrandedRacks)
		}
	}
}

func TestUnitScopeIsAnOutage(t *testing.T) {
	// Whole-group cascades partition connectivity → SEV1 (the paper's
	// load-balancer SEV1 example).
	a, net := testAssessor(t)
	for _, dt := range []topology.DeviceType{topology.CSA, topology.CSW, topology.ESW, topology.RSW} {
		as, err := a.Assess(firstOfType(t, net, dt), ScopeUnit)
		if err != nil {
			t.Fatal(err)
		}
		if as.Severity != sev.Sev1 {
			t.Errorf("%v unit cascade → %v (stranded %d), want SEV1", dt, as.Severity, as.StrandedRacks)
		}
	}
}

func TestSeverityMonotoneInScope(t *testing.T) {
	// Wider scope must never produce a *less* severe assessment.
	a, net := testAssessor(t)
	for _, dt := range topology.IntraDCTypes {
		name := firstOfType(t, net, dt)
		var prev sev.Severity = sev.Sev3
		for _, scope := range []Scope{ScopeDevice, ScopeGroup, ScopeUnit} {
			as, err := a.Assess(name, scope)
			if err != nil {
				t.Fatal(err)
			}
			if as.Severity > prev { // numerically higher = less severe
				t.Errorf("%v: severity regressed at scope %v", dt, scope)
			}
			prev = as.Severity
		}
	}
}

func TestPeers(t *testing.T) {
	a, net := testAssessor(t)
	// A CSW's peers are the other 3 CSWs of its cluster.
	csw := firstOfType(t, net, topology.CSW)
	if got := len(a.Peers(csw)); got != 3 {
		t.Errorf("CSW peers = %d, want 3", got)
	}
	// A Core's peers are the other 7 cores of its DC.
	core := firstOfType(t, net, topology.Core)
	if got := len(a.Peers(core)); got != 7 {
		t.Errorf("Core peers = %d, want 7", got)
	}
	if a.Peers("ghost") != nil {
		t.Error("unknown device has peers")
	}
}

func TestCapacityLossFractions(t *testing.T) {
	a, net := testAssessor(t)
	as, err := a.Assess(firstOfType(t, net, topology.Core), ScopeDevice)
	if err != nil {
		t.Fatal(err)
	}
	if as.CapacityLoss != 1.0/8 {
		t.Errorf("core device loss = %v, want 1/8", as.CapacityLoss)
	}
	as, err = a.Assess(firstOfType(t, net, topology.Core), ScopeGroup)
	if err != nil {
		t.Fatal(err)
	}
	if as.CapacityLoss != 0.5 {
		t.Errorf("core group loss = %v, want 1/2", as.CapacityLoss)
	}
}

func TestDownListsSortedDevices(t *testing.T) {
	a, net := testAssessor(t)
	as, err := a.Assess(firstOfType(t, net, topology.CSW), ScopeUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.Down) != 4 {
		t.Errorf("unit scope down = %v, want the 4 cluster CSWs", as.Down)
	}
	for i := 1; i < len(as.Down); i++ {
		if as.Down[i] < as.Down[i-1] {
			t.Error("Down not sorted")
		}
	}
}

func TestAffectedServicesNamed(t *testing.T) {
	a, net := testAssessor(t)
	as, err := a.Assess(firstOfType(t, net, topology.CSA), ScopeUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.Services) == 0 {
		t.Error("DC-wide outage affected no services")
	}
	for _, s := range as.Services {
		found := false
		for _, known := range ServiceNames {
			if s == known {
				found = true
			}
		}
		if !found {
			t.Errorf("unknown service %q", s)
		}
	}
}

func TestImpactDescriptions(t *testing.T) {
	a, net := testAssessor(t)
	as, _ := a.Assess(firstOfType(t, net, topology.CSA), ScopeUnit)
	if !strings.Contains(as.Impact, "partitioned") {
		t.Errorf("SEV1 impact = %q", as.Impact)
	}
	as, _ = a.Assess(firstOfType(t, net, topology.Core), ScopeDevice)
	if !strings.Contains(as.Impact, "masked") {
		t.Errorf("masked impact = %q", as.Impact)
	}
}

func BenchmarkAssessUnitScope(b *testing.B) {
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		b.Fatal(err)
	}
	a := NewAssessor(net)
	name := net.DevicesOfType(topology.CSW)[0].Name
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Assess(name, ScopeUnit); err != nil {
			b.Fatal(err)
		}
	}
}
