package core

import (
	"fmt"
	"math"

	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

// The claims reference: the claim verifiers as they read the per-figure
// methods, kept so TestClaimsMatchReference can require the verifiers to
// grade every claim with the same ID, Claim, Detail and Pass.

// refIntraClaims is VerifyIntraClaims as it was written before the count
// table: every figure read through its public method, 13 store queries.
func refIntraClaims(a *IntraAnalysis) []ClaimResult {
	var out []ClaimResult
	add := func(id, claim, detail string, pass bool) {
		out = append(out, ClaimResult{ID: id, Claim: claim, Detail: detail, Pass: pass})
	}

	dist := a.RootCauseDistribution()
	largest := true
	for _, c := range sev.RootCauses {
		if c == sev.Maintenance || c == sev.Undetermined {
			continue
		}
		if dist[c] > dist[sev.Maintenance] {
			largest = false
		}
	}
	add("table2-maintenance-largest",
		"maintenance is the largest determined root-cause category (§5.1)",
		fmt.Sprintf("maintenance %.1f%%", 100*dist[sev.Maintenance]), largest)

	human := dist[sev.Configuration] + dist[sev.Bug]
	ratio := 0.0
	if dist[sev.Hardware] > 0 {
		ratio = human / dist[sev.Hardware]
	}
	add("table2-human-2x-hardware",
		"human-induced issues occur at ~2x the hardware rate (§5.1)",
		fmt.Sprintf("ratio %.2f", ratio), ratio > 1.3 && ratio < 3.0)

	csa13 := a.IncidentRate(2013)[topology.CSA]
	csa14 := a.IncidentRate(2014)[topology.CSA]
	add("fig3-csa-above-one",
		"CSA incident rate exceeded 1.0 in 2013-2014 (§5.2)",
		fmt.Sprintf("2013 %.2f, 2014 %.2f", csa13, csa14), csa13 > 1 && csa14 > 1)

	r2017 := a.IncidentRate(2017)
	rswLowest := true
	for _, dt := range topology.IntraDCTypes {
		if dt != topology.RSW && r2017[dt] <= r2017[topology.RSW] {
			rswLowest = false
		}
	}
	add("fig3-rsw-lowest-rate",
		"RSWs have the lowest per-device incident rate (§5.2)",
		fmt.Sprintf("RSW %.2e", r2017[topology.RSW]), rswLowest)

	fr := a.IncidentFractions()[2017]
	add("fig8-core-34pct",
		"Core devices contribute ~34% of 2017 incidents (§5.4)",
		fmt.Sprintf("measured %.1f%%", 100*fr[topology.Core]),
		math.Abs(fr[topology.Core]-0.34) <= 0.08)
	add("fig8-rsw-28pct",
		"rack switches contribute ~28% of 2017 incidents (§5.4)",
		fmt.Sprintf("measured %.1f%%", 100*fr[topology.RSW]),
		math.Abs(fr[topology.RSW]-0.28) <= 0.08)

	di := a.DesignIncidents(2017)
	fc := 0.0
	if di[2017][topology.DesignCluster] > 0 {
		fc = di[2017][topology.DesignFabric] / di[2017][topology.DesignCluster]
	}
	add("fig9-fabric-half-cluster",
		"2017 fabric incidents are ~50% of cluster incidents (§5.5)",
		fmt.Sprintf("ratio %.2f", fc), fc > 0.3 && fc < 0.75)

	dr := a.DesignRate()
	fabricBelow := true
	for year := fleet.FabricDeployYear; year <= fleet.LastYear; year++ {
		if dr[year][topology.DesignFabric] >= dr[year][topology.DesignCluster] {
			fabricBelow = false
		}
	}
	add("fig10-fabric-rate-below",
		"fabric incidents-per-device stay below cluster after deployment (§5.5)",
		fmt.Sprintf("2017: fabric %.4f vs cluster %.4f",
			dr[2017][topology.DesignFabric], dr[2017][topology.DesignCluster]), fabricBelow)

	fab := a.DesignMTBI(2017, topology.DesignFabric)
	clu := a.DesignMTBI(2017, topology.DesignCluster)
	mtbiRatio := 0.0
	if clu > 0 {
		mtbiRatio = fab / clu
	}
	add("s56-fabric-mtbi-3x",
		"fabric switches fail ~3.2x less frequently than cluster switches (§5.6)",
		fmt.Sprintf("ratio %.2f", mtbiRatio), mtbiRatio > 2 && mtbiRatio < 5)

	mtbi := a.MTBI(2017)
	span := 0.0
	if mtbi[topology.Core] > 0 {
		span = mtbi[topology.RSW] / mtbi[topology.Core]
	}
	add("fig12-mtbi-orders",
		"MTBI varies by orders of magnitude across switch types (§5.6)",
		fmt.Sprintf("RSW/Core span %.0fx", span), span > 100)

	pts := a.IRTvsScale()
	corr, err := stats.Correlation(pts)
	add("fig14-irt-grows-with-scale",
		"larger networks increase incident resolution time (§5.6)",
		fmt.Sprintf("correlation %.2f", corr), err == nil && corr > 0.6)

	growth := 0.0
	byYear := a.Store.Query().CountByYear()
	if byYear[fleet.FirstYear] > 0 {
		growth = float64(byYear[fleet.LastYear]) / float64(byYear[fleet.FirstYear])
	}
	add("s54-growth-9x",
		"total network SEVs grew ~9.4x from 2011 to 2017 (§5.4)",
		fmt.Sprintf("growth %.1fx", growth), growth > 6 && growth < 14)

	return out
}

// refInterClaims is VerifyInterClaims as it was written before the
// per-edge helper: every curve read through its exported name→value map.
func refInterClaims(a *InterAnalysis) []ClaimResult {
	var out []ClaimResult
	add := func(id, claim, detail string, pass bool) {
		out = append(out, ClaimResult{ID: id, Claim: claim, Detail: detail, Pass: pass})
	}

	mtbfFit, mtbfErr := FitCurve(a.EdgeMTBF())
	add("fig15-edge-mtbf-exponential",
		"edge MTBF follows an exponential percentile curve, B ~ 2.34 (§6.1)",
		fmt.Sprintf("%.1f*e^(%.2fp), R2=%.2f", mtbfFit.A, mtbfFit.B, mtbfFit.R2),
		mtbfErr == nil && mtbfFit.B > 1.6 && mtbfFit.B < 3.2 && mtbfFit.R2 > 0.6)

	mttrFit, mttrErr := FitCurve(a.EdgeMTTR())
	add("fig16-edge-mttr-exponential",
		"edge MTTR follows an exponential percentile curve, B ~ 4.26 (§6.1)",
		fmt.Sprintf("%.2f*e^(%.2fp), R2=%.2f", mttrFit.A, mttrFit.B, mttrFit.R2),
		mttrErr == nil && mttrFit.B > 2.5 && mttrFit.B < 6.0 && mttrFit.R2 > 0.6)

	vals := refValues(a.EdgeMTTR())
	p50, err := stats.Percentile(vals, 50)
	add("fig16-edges-recover-hours",
		"50% of edges recover within ~10 hours (§6.1)",
		fmt.Sprintf("p50 %.1f h", p50), err == nil && p50 > 3 && p50 < 30)

	vmtbf := a.VendorMTBF()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vmtbf {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	spread := 0.0
	if lo > 0 {
		spread = hi / lo
	}
	add("fig17-vendor-spread",
		"vendor MTBF spans orders of magnitude (§6.2)",
		fmt.Sprintf("spread %.0fx", spread), spread > 10)

	vFit, vErr := FitCurve(a.VendorMTTR())
	add("fig18-vendor-mttr-model",
		"vendor MTTR fits ~1.13*e^(4.77p) (§6.2)",
		fmt.Sprintf("%.2f*e^(%.2fp), R2=%.2f", vFit.A, vFit.B, vFit.R2),
		vErr == nil && vFit.B > 2.5 && vFit.B < 7 && vFit.R2 > 0.6)

	rows := a.ByContinent()
	africaLongest := true
	for c, r := range rows {
		if c != mostReliableContinent && r.MTBF > rows[mostReliableContinent].MTBF {
			africaLongest = false
		}
	}
	add("table4-africa-longest-mtbf",
		"edges in Africa have the longest MTBF (Table 4)",
		fmt.Sprintf("Africa %.0f h", rows[mostReliableContinent].MTBF), africaLongest)

	withinDay := true
	worst := 0.0
	for _, r := range rows {
		if r.MTTR > worst {
			worst = r.MTTR
		}
		if r.MTTR > 36 {
			withinDay = false
		}
	}
	add("table4-recover-within-day",
		"edges recover within ~1 day on average on all continents (§6.3)",
		fmt.Sprintf("slowest continent %.1f h", worst), withinDay)

	return out
}

func refValues(m map[string]float64) []float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	return vals
}
