// Package drill implements the reliability exercises §5.7 describes: "we
// run periodical tests, including both fault injection testing and disaster
// recovery testing, to exercise the reliability of our production systems
// by simulating different types of network failures, such as device outages
// and disconnection of an entire data center."
//
// A Scenario names a set of devices to fail; the Runner injects the failure
// into the topology, re-routes the production demand matrix, and grades the
// outcome against pass criteria (no stranded racks beyond tolerance, no
// undeliverable volume beyond tolerance, no saturated devices).
package drill

import (
	"errors"
	"fmt"
	"sort"

	"dcnr/internal/routing"
	"dcnr/internal/topology"
	"dcnr/internal/traffic"
)

// Scenario is one injected failure.
type Scenario struct {
	// Name identifies the drill.
	Name string
	// Down lists the devices to fail.
	Down []string
}

// DeviceOutage builds a scenario failing the first count devices of the
// given type.
func DeviceOutage(net *topology.Network, t topology.DeviceType, count int) (Scenario, error) {
	devices := net.DevicesOfType(t)
	if count <= 0 || count > len(devices) {
		return Scenario{}, fmt.Errorf("drill: cannot fail %d of %d %v devices", count, len(devices), t)
	}
	sc := Scenario{Name: fmt.Sprintf("%d-%v-outage", count, t)}
	for i := 0; i < count; i++ {
		sc.Down = append(sc.Down, devices[i].Name)
	}
	return sc, nil
}

// DataCenterDisconnect builds the paper's headline drill: disconnection of
// an entire data center, injected by failing all of its core devices.
func DataCenterDisconnect(net *topology.Network, dc string) (Scenario, error) {
	sc := Scenario{Name: "disconnect-" + dc}
	for _, d := range net.DevicesOfType(topology.Core) {
		if d.DC == dc {
			sc.Down = append(sc.Down, d.Name)
		}
	}
	if len(sc.Down) == 0 {
		return Scenario{}, fmt.Errorf("drill: data center %q has no core devices", dc)
	}
	return sc, nil
}

// Pass criteria: a drill tolerates a single stranded rack, 2% of offered
// volume left undelivered, and 95% peak utilization on any surviving
// device.
const (
	maxStrandedRacks         = 1
	maxLostFraction  float64 = 0.02
	maxUtilization   float64 = 0.95
)

// Result grades one executed drill.
type Result struct {
	Scenario Scenario
	// StrandedRacks counts racks with no path to any core device.
	StrandedRacks int
	// Load is the traffic picture under the failure.
	Load traffic.Report
	// Pass reports whether every criterion held.
	Pass bool
	// Failures lists the criteria that did not hold.
	Failures []string
}

// Runner executes drills against one topology and demand matrix.
type Runner struct {
	net     *topology.Network
	demands []routing.Demand
}

// NewRunner validates the demand matrix and returns a Runner.
func NewRunner(net *topology.Network, demands []routing.Demand) (*Runner, error) {
	if net == nil {
		return nil, errors.New("drill: nil network")
	}
	if err := routing.Validate(net, demands); err != nil {
		return nil, err
	}
	return &Runner{net: net, demands: demands}, nil
}

// Run injects the scenario and grades the outcome.
func (r *Runner) Run(sc Scenario) (Result, error) {
	down := make(map[string]bool, len(sc.Down))
	for _, name := range sc.Down {
		if r.net.Device(name) == nil {
			return Result{}, fmt.Errorf("drill: scenario %q fails unknown device %q", sc.Name, name)
		}
		down[name] = true
	}
	res := Result{
		Scenario:      sc,
		StrandedRacks: len(r.net.StrandedRacks(down)),
		Load:          traffic.Study(r.net, r.demands, down),
	}
	if res.StrandedRacks > maxStrandedRacks {
		res.Failures = append(res.Failures,
			fmt.Sprintf("stranded %d racks (tolerance %d)", res.StrandedRacks, maxStrandedRacks))
	}
	if lf := res.Load.LostFraction(); lf > maxLostFraction {
		res.Failures = append(res.Failures,
			fmt.Sprintf("lost %.1f%% of volume (tolerance %.1f%%)", 100*lf, 100*maxLostFraction))
	}
	if res.Load.MaxUtilization > maxUtilization {
		res.Failures = append(res.Failures,
			fmt.Sprintf("%s at %.0f%% utilization (bound %.0f%%)",
				res.Load.MaxDevice, 100*res.Load.MaxUtilization, 100*maxUtilization))
	}
	res.Pass = len(res.Failures) == 0
	return res, nil
}

// RunAll executes every scenario and returns results in order.
func (r *Runner) RunAll(scenarios []Scenario) ([]Result, error) {
	out := make([]Result, 0, len(scenarios))
	for _, sc := range scenarios {
		res, err := r.Run(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// StandardDrills builds the suite the paper sketches: single-device
// outages for every type present plus a disconnect drill per data center.
func StandardDrills(net *topology.Network) ([]Scenario, error) {
	var out []Scenario
	for _, t := range topology.IntraDCTypes {
		if len(net.DevicesOfType(t)) == 0 {
			continue
		}
		sc, err := DeviceOutage(net, t, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	dcs := map[string]bool{}
	for _, d := range net.DevicesOfType(topology.Core) {
		dcs[d.DC] = true
	}
	names := make([]string, 0, len(dcs))
	for dc := range dcs {
		names = append(names, dc)
	}
	sort.Strings(names)
	for _, dc := range names {
		sc, err := DataCenterDisconnect(net, dc)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}
