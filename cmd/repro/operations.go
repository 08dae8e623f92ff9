package main

// Operational experiments beyond the paper's tables and figures: the
// mechanisms behind its §3.1/§5.1/§5.2/§5.7 claims, made measurable.

import (
	"fmt"
	"io"

	"dcnr"
	"dcnr/internal/report"
)

func congestionStudy(d *datasets, w io.Writer) error {
	net, err := dcnr.ReferenceTopology()
	if err != nil {
		return err
	}
	demands, err := dcnr.GenerateTraffic(net, d.seed)
	if err != nil {
		return err
	}
	// Progressive CSW loss within one cluster: watch the surviving
	// members of the redundancy group heat up.
	var cluster []string
	unit := net.DevicesOfType(dcnr.CSW)[0].Unit
	for _, dev := range net.DevicesOfType(dcnr.CSW) {
		if dev.Unit == unit {
			cluster = append(cluster, dev.Name)
		}
	}
	t := &report.Table{
		Title:   experiments["congestion"].title,
		Note:    "§3.1: fewer switches to route requests means more congestion on the survivors",
		Headers: []string{"Scenario", "Surviving-CSW peak util", "Network peak util", "Lost volume"},
	}
	addRow := func(name string, down map[string]bool) {
		router := dcnr.NewRouter(net)
		router.SetDown(down)
		load, _ := router.Route(dcnr.Reassign(net, demands, down))
		util := router.Utilization(load)
		survivorPeak := 0.0
		for _, csw := range cluster {
			if !down[csw] && util[csw] > survivorPeak {
				survivorPeak = util[csw]
			}
		}
		rep := dcnr.StudyTraffic(net, demands, down)
		t.AddRow(name, report.Pct(survivorPeak), report.Pct(rep.MaxUtilization),
			report.Pct(rep.LostFraction()))
	}
	addRow("healthy", nil)
	for n := 1; n < len(cluster); n++ {
		down := map[string]bool{}
		for i := 0; i < n; i++ {
			down[cluster[i]] = true
		}
		addRow(fmt.Sprintf("%d of %d cluster CSWs down", n, len(cluster)), down)
	}
	// One core down: failover absorbs it.
	addRow("1 of 8 cores down", map[string]bool{net.DevicesOfType(dcnr.Core)[0].Name: true})
	return emit(t, w)
}

func ablationDrain(d *datasets, w io.Writer) error {
	net, err := dcnr.ReferenceTopology()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["ablation-drain"].title,
		Note:    "§5.2: draining devices before maintenance limited repair impact; CSA MTBI rose two orders of magnitude",
		Headers: []string{"Policy", "Steps", "Mishaps", "Service incidents"},
	}
	for _, policy := range []dcnr.DrainPolicy{dcnr.NoDrain, dcnr.DrainFirst} {
		assessor := dcnr.NewImpactAssessor(net)
		sched, err := dcnr.NewMaintenanceScheduler(assessor, d.seed)
		if err != nil {
			return err
		}
		steps, mishaps, incidents := 0, 0, 0
		// A year of monthly maintenance across every CSW redundancy group.
		groups := cswGroups(net)
		for month := 0; month < 12; month++ {
			for _, group := range groups {
				rep, err := sched.RollingMaintenance(group, policy)
				if err != nil {
					return err
				}
				steps += rep.Steps
				mishaps += rep.Mishaps
				incidents += rep.IncidentCount()
			}
		}
		t.AddRow(policy.String(), fmt.Sprint(steps), fmt.Sprint(mishaps), fmt.Sprint(incidents))
	}
	return emit(t, w)
}

func cswGroups(net *dcnr.Network) [][]string {
	byUnit := map[string][]string{}
	var order []string
	for _, dev := range net.DevicesOfType(dcnr.CSW) {
		if len(byUnit[dev.Unit]) == 0 {
			order = append(order, dev.Unit)
		}
		byUnit[dev.Unit] = append(byUnit[dev.Unit], dev.Name)
	}
	groups := make([][]string, 0, len(order))
	for _, unit := range order {
		groups = append(groups, byUnit[unit])
	}
	return groups
}

func ablationConfig(d *datasets, w io.Writer) error {
	t := &report.Table{
		Title:   experiments["ablation-config"].title,
		Note:    "§5.1: review + canary testing explain the misconfiguration rate gap vs Wu et al.",
		Headers: []string{"Pipeline", "Mean devices misconfigured per faulty change"},
	}
	const fleetSize, trials = 10000, 2000
	pipelines := []struct {
		name  string
		guard dcnr.ConfigGuard
	}{
		{"no protections", dcnr.UnguardedConfig()},
		{"review only", func() dcnr.ConfigGuard {
			g := dcnr.NewConfigGuard(0)
			return g
		}()},
		{"review + 10-switch canary", dcnr.NewConfigGuard(10)},
	}
	for _, p := range pipelines {
		blast, err := dcnr.ConfigBlastStudy(p.guard, trials, fleetSize, d.seed)
		if err != nil {
			return err
		}
		t.AddRow(p.name, report.F(blast))
	}
	return emit(t, w)
}

func drillSuite(d *datasets, w io.Writer) error {
	net, err := dcnr.ReferenceTopology()
	if err != nil {
		return err
	}
	demands, err := dcnr.GenerateTraffic(net, d.seed)
	if err != nil {
		return err
	}
	runner, err := dcnr.NewDrillRunner(net, demands)
	if err != nil {
		return err
	}
	scenarios, err := dcnr.StandardDrills(net)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["drill-suite"].title,
		Note:    "§5.7: periodic fault injection and disaster recovery testing",
		Headers: []string{"Drill", "Stranded racks", "Peak util", "Lost volume", "Verdict"},
	}
	for _, sc := range scenarios {
		res, err := runner.Run(sc)
		if err != nil {
			return err
		}
		verdict := "PASS"
		if !res.Pass {
			verdict = "FAIL: " + res.Failures[0]
		}
		t.AddRow(sc.Name, fmt.Sprint(res.StrandedRacks),
			report.Pct(res.Load.MaxUtilization), report.Pct(res.Load.LostFraction()), verdict)
	}
	return emit(t, w)
}

func wanReroute(d *datasets, w io.Writer) error {
	bb, err := dcnr.NewWANBackbone(dcnr.WANConfig{
		Regions: []string{"east", "central", "west"},
	})
	if err != nil {
		return err
	}
	demands := []dcnr.WANDemand{
		{From: "east", To: "west", Gbps: 900},
		{From: "east", To: "central", Gbps: 300},
		{From: "central", To: "west", Gbps: 300},
	}
	t := &report.Table{
		Title:   experiments["wan-reroute"].title,
		Note:    "§3.2: fiber cuts cost capacity; traffic reroutes over other links at a latency cost",
		Headers: []string{"east-west planes cut", "Direct", "Rerouted", "Dropped", "Mean hops"},
	}
	for cuts := 0; cuts <= 4; cuts++ {
		if cuts > 0 {
			if err := bb.SetLinkDown("east", "west", cuts-1, true); err != nil {
				return err
			}
		}
		rep, err := bb.Engineer(demands)
		if err != nil {
			return err
		}
		f := rep.Flows[0] // the east-west flow
		t.AddRow(fmt.Sprintf("%d of 4", cuts),
			report.F(f.DirectGbps), report.F(f.ReroutedGbps), report.F(f.DroppedGbps),
			fmt.Sprintf("%.2f", rep.MeanPathHops))
	}
	return emit(t, w)
}

func opticalAttribution(d *datasets, w io.Writer) error {
	res, err := d.inter()
	if err != nil {
		return err
	}
	inv := dcnr.BuildOpticalInventory(res.Topology, d.seed)
	// Attribute the raw link downtime records (the BackboneResult keeps
	// the reconstructed intervals; re-derive raw records via simulate).
	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = d.seed
	downs, err := res.Topology.Simulate(cfg)
	if err != nil {
		return err
	}
	stats, err := inv.FailuresByMedium(downs)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   experiments["optical-attribution"].title,
		Note:    "§3.2: links are circuits of segments; correlated cuts hit the shared last-mile conduit",
		Headers: []string{"Metric", "Value"},
	}
	groups := inv.SharedRiskGroups()
	t.AddRow("optical segments", fmt.Sprint(len(inv.Segments())))
	t.AddRow("shared-risk groups (edge conduits)", fmt.Sprint(len(groups)))
	cutCount, isolatedCount := 0, 0
	for _, dn := range downs {
		if dn.Cut {
			cutCount++
		} else {
			isolatedCount++
		}
	}
	t.AddRow("failures on shared conduits (cuts)", fmt.Sprint(cutCount))
	t.AddRow("failures on private long-haul spans", fmt.Sprint(isolatedCount))
	for _, m := range []dcnr.OpticalMedium{dcnr.Terrestrial, dcnr.Submarine} {
		s := stats[m]
		t.AddRow(fmt.Sprintf("%v failures / mean repair", m),
			fmt.Sprintf("%d / %s h", s.Failures, report.F(s.MeanMTTR)))
	}
	return emit(t, w)
}
