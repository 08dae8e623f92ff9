package faults

import (
	"math"
	"reflect"
	"testing"

	"dcnr/internal/des"
	"dcnr/internal/fleet"
	"dcnr/internal/remediation"
	"dcnr/internal/service"
	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

func runDriver(t *testing.T, seed uint64, from, to int) (*Driver, *sev.Store) {
	t.Helper()
	d, err := NewDriver(fleet.New(1), seed)
	if err != nil {
		t.Fatal(err)
	}
	store, err := d.Run(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return d, store
}

func TestCalibrationTablesConsistent(t *testing.T) {
	for year := fleet.FirstYear; year <= fleet.LastYear; year++ {
		if incidentTotals[year] <= 0 {
			t.Errorf("no incident total for %d", year)
		}
		sum := 0.0
		for _, share := range incidentShares[year] {
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%d shares sum to %v, want 1", year, sum)
		}
		if resolutionP75[year] <= 0 {
			t.Errorf("no resolution target for %d", year)
		}
	}
	// Incident growth 2011→2017 must be the paper's 9.4×.
	growth := incidentTotals[2017] / incidentTotals[2011]
	if math.Abs(growth-9.4) > 0.1 {
		t.Errorf("incident growth = %.2f, want 9.4", growth)
	}
}

func TestScopeWeightsCoverAllTypes(t *testing.T) {
	for _, dt := range topology.IntraDCTypes {
		if w := scopeWeights[dt]; len(w) != 3 {
			t.Errorf("scope weights missing for %v", dt)
		}
	}
}

func TestEscalationProbs(t *testing.T) {
	if got := escalationProb(topology.RSW); got != 1.0/397 {
		t.Errorf("RSW escalation = %v", got)
	}
	if got := escalationProb(topology.CSA); got != 1 {
		t.Errorf("CSA escalation = %v", got)
	}
}

func TestRunRejectsBadYearRange(t *testing.T) {
	d, err := NewDriver(fleet.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{2010, 2011}, {2017, 2018}, {2015, 2012}} {
		if _, err := d.Run(r[0], r[1]); err == nil {
			t.Errorf("Run(%d, %d) accepted", r[0], r[1])
		}
	}
}

// TestRunTwiceReturnsError pins the single-use contract: the first Run
// leaves the simulator's clock at +Inf, so a second Run must be refused
// instead of panicking on a fault scheduled in the past.
func TestRunTwiceReturnsError(t *testing.T) {
	d, store := runDriver(t, 5, 2017, 2017)
	n, faults := store.Len(), d.Faults()
	if _, err := d.Run(2017, 2017); err == nil {
		t.Fatal("second Run accepted")
	}
	if store.Len() != n || d.Faults() != faults {
		t.Errorf("refused Run changed the results: %d SEVs, %d faults; want %d, %d",
			store.Len(), d.Faults(), n, faults)
	}
}

// TestFaultDeviceNames pins the device-name rules and Device's single
// allocation (the string).
func TestFaultDeviceNames(t *testing.T) {
	for _, c := range []struct {
		f    Fault
		want string
	}{
		{Fault{Type: topology.RSW, ordinal: 161}, "rsw161.cl003.dc1.regiona"},
		{Fault{Type: topology.RSW, ordinal: 97, fabric: true}, "rsw097.pod003.dc2.regionb"},
		{Fault{Type: topology.CSW, ordinal: 9}, "csw009.cl003.dc1.regiona"},
		{Fault{Type: topology.FSW, ordinal: 4000}, "fsw4000.pod1001.dc2.regionb"},
		{Fault{Type: topology.SSW, ordinal: 12}, "ssw012.dc2.regionb"},
		{Fault{Type: topology.Core, ordinal: 3}, "core003.dc1.regiona"},
	} {
		if got := c.f.Device(); got != c.want {
			t.Errorf("Device() = %q, want %q", got, c.want)
		}
	}
	f := Fault{Type: topology.RSW, ordinal: 1234, fabric: true}
	if allocs := testing.AllocsPerRun(100, func() { f.Device() }); allocs != 1 {
		t.Errorf("Device() = %v allocs, want 1", allocs)
	}
}

func TestSingleYearVolumes(t *testing.T) {
	d, store := runDriver(t, 42, 2017, 2017)
	got := float64(store.Len())
	want := TotalIncidentTarget(2017)
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("2017 incidents = %v, want ~%v", got, want)
	}
	if d.Incidents() != store.Len() {
		t.Errorf("Incidents() = %d, store has %d", d.Incidents(), store.Len())
	}
	if d.Faults() <= store.Len() {
		t.Errorf("faults (%d) should vastly exceed incidents (%d)", d.Faults(), store.Len())
	}
}

func TestFaultsVastlyOutnumberIncidents(t *testing.T) {
	// §4.1: the vast majority of issues are repaired by automation. With
	// RSW raw faults at ~397× incidents, total faults should be >50×
	// incidents in 2017.
	d, store := runDriver(t, 7, 2017, 2017)
	if ratio := float64(d.Faults()) / float64(store.Len()); ratio < 50 {
		t.Errorf("fault:incident ratio = %.1f, want > 50", ratio)
	}
}

func TestSevenYearRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full seven-year run")
	}
	_, store := runDriver(t, 1, fleet.FirstYear, fleet.LastYear)
	want := 0.0
	for y := fleet.FirstYear; y <= fleet.LastYear; y++ {
		want += TotalIncidentTarget(y)
	}
	got := float64(store.Len())
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("total incidents = %v, want ~%v", got, want)
	}
	// No fabric SEVs before deployment.
	for y := fleet.FirstYear; y < fleet.FabricDeployYear; y++ {
		if n := store.Query().Year(y).Design(topology.DesignFabric).Count(); n != 0 {
			t.Errorf("%d: %d fabric SEVs before deployment", y, n)
		}
	}
}

func TestReportsAreValidAndParseable(t *testing.T) {
	_, store := runDriver(t, 3, 2016, 2017)
	for _, r := range store.All() {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid report %d: %v", r.ID, err)
		}
		if _, err := r.DeviceType(); err != nil {
			t.Fatalf("unparseable device %q", r.Device)
		}
		if r.Year != 2016 && r.Year != 2017 {
			t.Fatalf("report year %d outside run range", r.Year)
		}
		yearStart := float64(r.Year-fleet.FirstYear) * 8760
		if r.Start < yearStart || r.Start >= yearStart+8760 {
			t.Fatalf("report start %v outside its year %d", r.Start, r.Year)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, s1 := runDriver(t, 99, 2017, 2017)
	_, s2 := runDriver(t, 99, 2017, 2017)
	a, b := s1.All(), s2.All()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Device != b[i].Device || a[i].Severity != b[i].Severity || a[i].Start != b[i].Start {
			t.Fatalf("report %d differs between identical runs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	_, s1 := runDriver(t, 1, 2017, 2017)
	_, s2 := runDriver(t, 2, 2017, 2017)
	a, b := s1.All(), s2.All()
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Device != b[i].Device {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical histories")
		}
	}
}

func TestSeverityMixRoughlyCalibrated(t *testing.T) {
	// Pool several seeds of 2017 for a stable severity mix near the
	// paper's 82/13/5 (Figure 4's N values).
	counts := map[sev.Severity]int{}
	total := 0
	for seed := uint64(0); seed < 5; seed++ {
		_, store := runDriver(t, seed, 2017, 2017)
		for s, n := range store.Query().CountBySeverity() {
			counts[s] += n
			total += n
		}
	}
	frac := func(s sev.Severity) float64 { return float64(counts[s]) / float64(total) }
	if f := frac(sev.Sev3); math.Abs(f-0.82) > 0.06 {
		t.Errorf("SEV3 fraction = %.3f, want ~0.82", f)
	}
	if f := frac(sev.Sev2); math.Abs(f-0.13) > 0.05 {
		t.Errorf("SEV2 fraction = %.3f, want ~0.13", f)
	}
	if f := frac(sev.Sev1); math.Abs(f-0.05) > 0.04 {
		t.Errorf("SEV1 fraction = %.3f, want ~0.05", f)
	}
}

func TestRootCauseMixRoughlyTable2(t *testing.T) {
	counts := map[sev.RootCause]int{}
	reports := 0
	for seed := uint64(0); seed < 5; seed++ {
		_, store := runDriver(t, seed, 2016, 2017)
		for c, n := range store.Query().CountByRootCause() {
			counts[c] += n
		}
		reports += store.Len()
	}
	frac := func(c sev.RootCause) float64 { return float64(counts[c]) / float64(reports) }
	if f := frac(sev.Maintenance); math.Abs(f-0.17) > 0.05 {
		t.Errorf("maintenance fraction = %.3f, want ~0.17", f)
	}
	if f := frac(sev.Undetermined); math.Abs(f-0.29) > 0.06 {
		t.Errorf("undetermined fraction = %.3f, want ~0.29", f)
	}
	// §5.1: human-induced (config+bug) ≈ 2× hardware.
	human := frac(sev.Configuration) + frac(sev.Bug)
	hw := frac(sev.Hardware)
	if ratio := human / hw; ratio < 1.4 || ratio > 2.7 {
		t.Errorf("human:hardware root cause ratio = %.2f, want ~2", ratio)
	}
}

func TestAblationRemediationOff(t *testing.T) {
	// §5.6: without software-managed remediation, incident rates for
	// supported device types explode.
	dOn, err := NewDriver(fleet.New(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	sOn, err := dOn.Run(2017, 2017)
	if err != nil {
		t.Fatal(err)
	}
	dOff, err := NewDriver(fleet.New(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	dOff.Engine.SetEnabled(false)
	sOff, err := dOff.Run(2017, 2017)
	if err != nil {
		t.Fatal(err)
	}
	onRSW := sOn.Query().DeviceType(topology.RSW).Count()
	offRSW := sOff.Query().DeviceType(topology.RSW).Count()
	if offRSW < 50*maxInt(onRSW, 1) {
		t.Errorf("RSW incidents without remediation = %d, with = %d; want ≥50× increase", offRSW, onRSW)
	}
	// Unsupported types are unaffected by the ablation (same raw rate).
	onCSW := sOn.Query().DeviceType(topology.CSW).Count()
	offCSW := sOff.Query().DeviceType(topology.CSW).Count()
	if math.Abs(float64(onCSW-offCSW)) > 4*math.Sqrt(float64(maxInt(onCSW, 1))) {
		t.Errorf("CSW incidents changed under ablation: %d vs %d", onCSW, offCSW)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestTable1StatsEmergeFromRun(t *testing.T) {
	d, _ := runDriver(t, 11, 2017, 2017)
	st := d.Engine.Stats()
	rsw := st[topology.RSW]
	if rsw.Issues < 1000 {
		t.Fatalf("RSW issues = %d, want thousands", rsw.Issues)
	}
	if got := rsw.RepairRatio(); got < 0.99 {
		t.Errorf("RSW repair ratio = %.4f, want ~0.997", got)
	}
	core := st[topology.Core]
	if got := core.RepairRatio(); math.Abs(got-0.75) > 0.12 {
		t.Errorf("Core repair ratio = %.3f, want ~0.75", got)
	}
}

func BenchmarkSevenYearSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := NewDriver(fleet.New(1), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Run(fleet.FirstYear, fleet.LastYear); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRepairedFaultsAllocateNothing drives faults through a warmed driver
// and requires the fault → remediation → outcome path to allocate
// nothing: the fault event, the engine's tagged submission, the outcome
// event and its delivery back to the driver. A window in which a fault
// escalated is passed over, because recording a SEV builds its report.
func TestRepairedFaultsAllocateNothing(t *testing.T) {
	d, err := NewDriver(fleet.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of 200 simultaneous faults grows the kernel's pool and the
	// engine's outcome slab past anything the steady stream after it,
	// one fault every 10 hours, keeps pending.
	start := des.YearStart(2015, fleet.FirstYear)
	for i := 0; i < 2200; i++ {
		at := start
		if i >= 200 {
			at += 1000 + 10*float64(i)
		}
		d.slab = append(d.slab, Fault{
			Type: topology.RSW, Class: remediation.PortPingFailure,
			Start: at, Year: 2015, draw: int32(i),
		})
	}
	d.armFaults()
	steps := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				d.sim.Step()
			}
		}
	}
	steps(1000)()
	clean := 0
	for w := 0; w < 10; w++ {
		incidents := d.incidents
		// One run of 100 events, so a single allocation shows as 1.
		allocs := testing.AllocsPerRun(1, steps(100))
		if d.incidents != incidents {
			continue
		}
		if allocs != 0 {
			t.Fatalf("window %d: 100 events of repaired faults allocated %v times, want 0", w, allocs)
		}
		clean++
	}
	t.Logf("%d of 10 windows had no escalation", clean)
	if clean < 5 {
		t.Fatalf("only %d of 10 windows had no escalation", clean)
	}
}

// TestImpactTableMatchesAssessor: the shared impact table holds, for each
// device type, its first maxRepresentatives devices in the representative
// topology, and each entry equals a fresh service.Assessor's verdict on
// that device and scope.
func TestImpactTableMatchesAssessor(t *testing.T) {
	table, err := sharedImpact()
	if err != nil {
		t.Fatal(err)
	}
	net, err := fleet.RepresentativeTopology()
	if err != nil {
		t.Fatal(err)
	}
	names := map[topology.DeviceType][]string{}
	for _, dev := range net.Devices() {
		if len(names[dev.Type]) < maxRepresentatives {
			names[dev.Type] = append(names[dev.Type], dev.Name)
		}
	}
	entries := 0
	for dt := range topology.DeviceType(len(table.reps)) {
		if table.reps[dt] != len(names[dt]) {
			t.Errorf("%v: %d representatives, want %d", dt, table.reps[dt], len(names[dt]))
			continue
		}
		for i, name := range names[dt] {
			for sc := range service.Scope(numScopes) {
				want, err := service.NewAssessor(net).Assess(name, sc)
				if err != nil {
					t.Fatal(err)
				}
				if got := table.as[dt][i][sc]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s at %v scope: table %+v, assessor %+v", name, sc, got, want)
				}
				entries++
			}
		}
	}
	if entries == 0 {
		t.Fatal("the table holds no assessments")
	}
}
