// Disaster drill: §5.7's reliability exercises. Builds a two-data-center
// topology, generates the production demand matrix, and runs the standard
// drill suite — single-device outages for every type plus a full
// data-center disconnection — grading each outcome against fixed pass
// criteria: at most one stranded rack, at most 2% of offered volume lost,
// and no surviving device above 95% utilization.
package main

import (
	"fmt"
	"log"

	"dcnr"
)

func main() {
	net, err := dcnr.ReferenceTopology()
	if err != nil {
		log.Fatal(err)
	}
	demands, err := dcnr.GenerateTraffic(net, 2018)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := dcnr.NewDrillRunner(net, demands)
	if err != nil {
		log.Fatal(err)
	}
	scenarios, err := dcnr.StandardDrills(net)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d drills against %d devices, %d demands\n\n",
		len(scenarios), net.NumDevices(), len(demands))
	passes := 0
	for _, sc := range scenarios {
		res, err := runner.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		status := "PASS"
		if res.Pass {
			passes++
		} else {
			status = "FAIL"
		}
		fmt.Printf("%-16s %s  stranded=%-3d peak=%.0f%% lost=%.1f%%\n",
			sc.Name, status, res.StrandedRacks,
			100*res.Load.MaxUtilization, 100*res.Load.LostFraction())
		for _, reason := range res.Failures {
			fmt.Printf("                   └─ %s\n", reason)
		}
	}
	fmt.Printf("\n%d/%d drills passed\n", passes, len(scenarios))
	fmt.Println("\nThe data-center disconnect drills are *meant* to fail against")
	fmt.Println("single-region criteria: they quantify exactly what cross-region")
	fmt.Println("replication and traffic engineering must absorb (§5.7, §6.4).")

	// The §2 argument in one pair of numbers: the same device count,
	// wildly different service impact depending on where redundancy sits.
	assessor := dcnr.NewImpactAssessor(net)
	csw := net.DevicesOfType(dcnr.CSW)[0].Name
	masked, err := assessor.Assess(csw, dcnr.ScopeDevice)
	if err != nil {
		log.Fatal(err)
	}
	cascade, err := assessor.Assess(csw, dcnr.ScopeUnit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame switch, two fates: isolated failure → %v (%s);\n  whole-group cascade → %v (%s)\n",
		masked.Severity, masked.Impact, cascade.Severity, cascade.Impact)
}
