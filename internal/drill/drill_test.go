package drill

import (
	"strings"
	"testing"

	"dcnr/internal/fleet"
	"dcnr/internal/routing"
	"dcnr/internal/simrand"
	"dcnr/internal/topology"
	"dcnr/internal/traffic"
)

func testRunner(t *testing.T) (*Runner, *topology.Network) {
	t.Helper()
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		t.Fatal(err)
	}
	demands, err := traffic.Generate(net, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(net, demands)
	if err != nil {
		t.Fatal(err)
	}
	return r, net
}

func TestDeviceOutageScenario(t *testing.T) {
	_, net := testRunner(t)
	sc, err := DeviceOutage(net, topology.CSW, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Down) != 2 || !strings.Contains(sc.Name, "CSW") {
		t.Errorf("scenario = %+v", sc)
	}
	if _, err := DeviceOutage(net, topology.CSW, 0); err == nil {
		t.Error("zero-count outage accepted")
	}
	if _, err := DeviceOutage(net, topology.CSW, 10000); err == nil {
		t.Error("oversized outage accepted")
	}
}

func TestDataCenterDisconnectScenario(t *testing.T) {
	_, net := testRunner(t)
	sc, err := DataCenterDisconnect(net, "dc1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Down) != 8 {
		t.Errorf("disconnect drill fails %d devices, want the 8 cores", len(sc.Down))
	}
	if _, err := DataCenterDisconnect(net, "nowhere"); err == nil {
		t.Error("unknown DC accepted")
	}
}

func TestNewRunnerValidation(t *testing.T) {
	_, net := testRunner(t)
	if _, err := NewRunner(nil, nil); err == nil {
		t.Error("nil network accepted")
	}
	bad := []routing.Demand{{Src: "ghost", Dst: "ghost", Gbps: 1}}
	if _, err := NewRunner(net, bad); err == nil {
		t.Error("invalid demands accepted")
	}
}

func TestRunUnknownDevice(t *testing.T) {
	r, _ := testRunner(t)
	if _, err := r.Run(Scenario{Name: "bad", Down: []string{"ghost"}}); err == nil {
		t.Error("unknown device in scenario accepted")
	}
}

func TestSingleDeviceOutagesPass(t *testing.T) {
	// §2: single-device failures are masked by redundancy — every
	// single-device drill should pass.
	r, net := testRunner(t)
	for _, dt := range topology.IntraDCTypes {
		sc, err := DeviceOutage(net, dt, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Errorf("drill %s failed: %v", sc.Name, res.Failures)
		}
	}
}

func TestDataCenterDisconnectFails(t *testing.T) {
	// Disconnecting a DC must trip the criteria: that is the point of the
	// drill.
	r, net := testRunner(t)
	sc, err := DataCenterDisconnect(net, "dc1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("DC disconnect drill passed — criteria not sensitive")
	}
	if res.StrandedRacks == 0 {
		t.Error("DC disconnect stranded no racks")
	}
	if res.Load.LostFraction() == 0 {
		t.Error("DC disconnect lost no volume")
	}
	if len(res.Failures) == 0 {
		t.Error("no failure reasons recorded")
	}
}

func TestRunAllStandardDrills(t *testing.T) {
	r, net := testRunner(t)
	scenarios, err := StandardDrills(net)
	if err != nil {
		t.Fatal(err)
	}
	// 7 device types + 2 data centers.
	if len(scenarios) != len(topology.IntraDCTypes)+2 {
		t.Fatalf("standard drills = %d", len(scenarios))
	}
	results, err := r.RunAll(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	passes, fails := 0, 0
	for _, res := range results {
		if res.Pass {
			passes++
		} else {
			fails++
		}
	}
	if passes != len(topology.IntraDCTypes) || fails != 2 {
		t.Errorf("passes=%d fails=%d, want single-device drills passing and DC drills failing", passes, fails)
	}
}

func BenchmarkStandardDrillSuite(b *testing.B) {
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		b.Fatal(err)
	}
	demands, err := traffic.Generate(net, simrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(net, demands)
	if err != nil {
		b.Fatal(err)
	}
	scenarios, err := StandardDrills(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunAll(scenarios); err != nil {
			b.Fatal(err)
		}
	}
}
