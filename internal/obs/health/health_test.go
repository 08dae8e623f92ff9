package health

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// testTargets: one device type, 100 expected incidents/year flat across
// three years, slack 1.5. Budget for a 15-day window ≈ 1.5 * 100*360/8760
// ≈ 6.16 incidents.
func testTargets() Targets {
	var y Year
	y.Expected[topology.RSW] = 100
	y.Population[topology.RSW] = 1000
	y.MTTRp75 = 10
	return Targets{EpochYear: 2011, Years: []Year{y, y, y}}
}

func TestExpectedIncidentsIntegration(t *testing.T) {
	tg := testTargets()
	if got := tg.expectedIncidents(topology.RSW, 0, hoursPerYear); got != 100 {
		t.Errorf("one full year = %v, want 100", got)
	}
	// Half of 2011 + half of 2012 at the same rate.
	got := tg.expectedIncidents(topology.RSW, hoursPerYear/2, hoursPerYear*3/2)
	if got < 99.9 || got > 100.1 {
		t.Errorf("year-straddling window = %v, want ≈ 100", got)
	}
	// Windows reaching before the study start truncate.
	if got := tg.expectedIncidents(topology.RSW, -hoursPerYear, hoursPerYear); got != 100 {
		t.Errorf("pre-epoch window = %v, want 100", got)
	}
	// Fleet-wide sums types.
	tg.Years[0].Expected[topology.Core] = 50
	if got := tg.expectedIncidents(allTypes, 0, hoursPerYear); got != 150 {
		t.Errorf("fleet-wide year = %v, want 150", got)
	}
}

// orderTable returns a per-type table whose sum depends on the order of
// its terms: Core holds 2^53, where floats are 2 apart, and every other
// type holds 1. A 1 added to a sum at or above 2^53 rounds away, while 1s
// summed before Core survive in part. sumOrder puts three types before
// Core, enum order six and display order none, so the three orders sum to
// 2^53+4, 2^53+8 and 2^53.
func orderTable() (t [numTypes]float64) {
	for dt := range t {
		t[dt] = 1
	}
	t[topology.Core] = math.Ldexp(1, 53)
	return t
}

// enumOrder lists the device types by enum value.
func enumOrder() []topology.DeviceType {
	var out []topology.DeviceType
	for dt := topology.DeviceType(0); int(dt) < numTypes; dt++ {
		out = append(out, dt)
	}
	return out
}

// TestSumOrder checks sumOrder lists every device type once, in the byte
// order of the type names.
func TestSumOrder(t *testing.T) {
	got := sumOrder[:]
	want := slices.SortedFunc(slices.Values(enumOrder()), func(a, b topology.DeviceType) int {
		return strings.Compare(a.String(), b.String())
	})
	if !slices.Equal(got, want) {
		t.Errorf("sumOrder = %v, want %v", got, want)
	}
}

// checkOrderSensitive fails the test unless sum gives a different result
// in enum and in display order than in sumOrder: test data that sums the
// same in every order cannot tell a wrong order from the right one.
func checkOrderSensitive(t *testing.T, sum func([]topology.DeviceType) float64) {
	t.Helper()
	want := math.Float64bits(sum(sumOrder[:]))
	for _, other := range [][]topology.DeviceType{enumOrder(), topology.DeviceTypes} {
		if math.Float64bits(sum(other)) == want {
			t.Fatalf("test data sums the same in order %v as in sumOrder", other)
		}
	}
}

// TestFleetMTTRFixedOrder checks the report's fleet-wide mean time to
// repair bit for bit against a sum over the types in sumOrder, with one
// orderTable resolution per type arriving in enum order.
func TestFleetMTTRFixedOrder(t *testing.T) {
	e, err := New(testTargets(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := orderTable()
	for _, dt := range enumOrder() {
		e.RecordIncident(float64(dt+1), dt, res[dt])
	}
	mean := func(order []topology.DeviceType) float64 {
		s := 0.0
		for _, dt := range order {
			s += res[dt]
		}
		return s / float64(numTypes)
	}
	checkOrderSensitive(t, mean)
	want := mean(sumOrder[:])
	if got := e.Report().Fleet.MTTRMeanHours; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fleet MTTR = %v, want %v bit for bit", got, want)
	}
}

// TestExpectedIncidentsFixedOrder checks the fleet-wide integral bit for
// bit against a sum in a fixed order — years ascending, types in sumOrder —
// over years of orderTable rates.
func TestExpectedIncidentsFixedOrder(t *testing.T) {
	tg := Targets{EpochYear: 2011, Years: make([]Year, 7)}
	for y := range tg.Years {
		tg.Years[y].Expected = orderTable()
	}
	from, to := hoursPerYear*0.3, hoursPerYear*6.7
	integral := func(order []topology.DeviceType) float64 {
		total := 0.0
		for i := range tg.Years {
			ys := float64(i) * hoursPerYear
			lo, hi := max(from, ys), min(to, ys+hoursPerYear)
			rate := 0.0
			for _, dt := range order {
				rate += tg.Years[i].Expected[dt]
			}
			total += rate * (hi - lo) / hoursPerYear
		}
		return total
	}
	checkOrderSensitive(t, integral)
	want := integral(sumOrder[:])
	if got := tg.expectedIncidents(allTypes, from, to); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("expectedIncidents = %v, want %v bit for bit", got, want)
	}
}

// driveBurn feeds n incidents uniformly over (from, to] and evaluates
// daily, returning the engine.
func seedIncidents(e *Engine, n int, from, to float64) {
	step := (to - from) / float64(n)
	for i := 0; i < n; i++ {
		e.RecordIncident(from+float64(i)*step+step/2, topology.RSW, 5)
	}
}

func TestBurnRuleLifecycle(t *testing.T) {
	rule := Rule{
		Name: "fast", Signal: SignalIncidentBurn,
		Windows: []float64{15 * 24, 60 * 24}, Threshold: 2.0, For: 48,
	}
	e, err := New(testTargets(), []Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.Instrument(reg)

	// Year 1 at calibration: ~100 incidents, burn ≈ 0.67 — stays quiet.
	seedIncidents(e, 100, 0, hoursPerYear)
	for d := 1; d <= 365; d++ {
		e.Evaluate(float64(d) * 24)
	}
	if got := e.Report(); !got.Healthy {
		t.Fatalf("calibrated year should stay healthy: %+v", got.Rules)
	}
	if n := len(e.Report().Transitions); n != 0 {
		t.Fatalf("calibrated year produced %d transitions", n)
	}

	// Year 2 elevated 5×: both windows breach, rule walks
	// inactive→pending→firing.
	seedIncidents(e, 500, hoursPerYear, 2*hoursPerYear)
	for d := 366; d <= 730; d++ {
		e.Evaluate(float64(d) * 24)
	}
	rep := e.Report()
	if rep.Healthy {
		t.Fatal("elevated year should be firing")
	}
	if st := rep.Rules[0].State; st != "firing" {
		t.Fatalf("rule state = %s, want firing", st)
	}

	// Year 3 back to calibration: windows drain, rule resolves.
	seedIncidents(e, 100, 2*hoursPerYear, 3*hoursPerYear)
	for d := 731; d <= 1095; d++ {
		e.Evaluate(float64(d) * 24)
	}
	rep = e.Report()
	if !rep.Healthy {
		t.Fatalf("rule should have resolved: %+v", rep.Rules)
	}

	// The history must contain the full walk, in order.
	var walk []string
	for _, tr := range rep.Transitions {
		walk = append(walk, tr.From+">"+tr.To)
	}
	want := []string{"inactive>pending", "pending>firing", "firing>inactive"}
	if strings.Join(walk, " ") != strings.Join(want, " ") {
		t.Fatalf("transition walk = %v, want %v", walk, want)
	}
	// Transitions carry their message text and reached the metrics.
	if msg := rep.Transitions[1].Message; !strings.Contains(msg, "firing") {
		t.Errorf("transition 1 message = %q, want it to contain \"firing\"", msg)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["health_transitions_total"]; got != 3 {
		t.Errorf("health_transitions_total = %d, want 3", got)
	}
	if got := snap.Counters["health_evaluations_total"]; got != 1095 {
		t.Errorf("health_evaluations_total = %d, want 1095", got)
	}
	if _, ok := snap.Gauges["health_burn_fast"]; !ok {
		t.Error("per-rule burn gauge not registered")
	}
}

func TestForDurationGatesFiring(t *testing.T) {
	rule := Rule{
		Name: "gated", Signal: SignalIncidentBurn,
		Windows: []float64{15 * 24}, Threshold: 2.0, For: 72,
	}
	e, err := New(testTargets(), []Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	e.RecordFault(1, topology.RSW) // open the observation window
	// Burst breaching the 15-day window, placed after it can fill.
	seedIncidents(e, 30, 400, 410)
	e.Evaluate(420) // condition true → pending
	e.Evaluate(444) // held 24h < 72h → still pending
	rep := e.Report()
	if st := rep.Rules[0].State; st != "pending" {
		t.Fatalf("state after 24h = %s, want pending", st)
	}
	e.Evaluate(500) // held 80h ≥ 72h → firing
	if st := e.Report().Rules[0].State; st != "firing" {
		t.Fatalf("state after 80h = %s, want firing", st)
	}
}

func TestPendingResetsWhenConditionClears(t *testing.T) {
	rule := Rule{
		Name: "flappy", Signal: SignalIncidentBurn,
		Windows: []float64{10 * 24}, Threshold: 2.0, For: 1000,
	}
	e, err := New(testTargets(), []Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	e.RecordFault(1, topology.RSW) // open the observation window
	seedIncidents(e, 20, 400, 410)
	e.Evaluate(420)
	if st := e.Report().Rules[0].State; st != "pending" {
		t.Fatalf("state = %s, want pending", st)
	}
	// Window slides past the burst: condition clears before For elapses.
	e.Evaluate(420 + 12*24)
	if st := e.Report().Rules[0].State; st != "inactive" {
		t.Fatalf("state = %s, want inactive after condition cleared", st)
	}
	if n := len(e.Report().Transitions); n != 2 {
		t.Errorf("transitions = %d, want 2 (pending then back)", n)
	}
}

func TestMultiWindowAND(t *testing.T) {
	rule := Rule{
		Name: "and", Signal: SignalIncidentBurn,
		Windows: []float64{5 * 24, 60 * 24}, Threshold: 2.0, For: 0,
	}
	e, err := New(testTargets(), []Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	e.RecordFault(1, topology.RSW) // open the observation window
	// A short spike breaches the 5-day window but not the 60-day one.
	seedIncidents(e, 10, 2000, 2024)
	e.Evaluate(2048)
	rep := e.Report()
	if st := rep.Rules[0].State; st != "inactive" {
		t.Fatalf("short-window-only spike moved rule to %s; values %v", st, rep.Rules[0].Values)
	}
	if v := rep.Rules[0].Values; len(v) != 2 || v[0] <= v[1] {
		t.Errorf("expected short window hotter than long: %v", v)
	}
}

func TestMTTRSignalNeedsSamples(t *testing.T) {
	rule := Rule{
		Name: "mttr", Signal: SignalMTTR,
		Windows: []float64{90 * 24}, Threshold: 2.0, For: 0,
	}
	e, err := New(testTargets(), []Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	e.RecordFault(1, topology.RSW) // open the observation window
	// One short of the sample floor: unmeasurable, must stay inactive.
	for i := 0; i < minMTTRSamples-1; i++ {
		e.RecordIncident(2200+float64(i), topology.RSW, 100)
	}
	e.Evaluate(2400)
	if st := e.Report().Rules[0].State; st != "inactive" {
		t.Fatalf("under-sampled MTTR signal fired: %s", st)
	}
	// One more sample crosses the floor: p75=100 vs target 10 → fires.
	e.RecordIncident(2210, topology.RSW, 100)
	e.Evaluate(2424)
	if st := e.Report().Rules[0].State; st != "firing" {
		t.Fatalf("state = %s, want firing (p75 10× target, For=0)", st)
	}
}

func TestOutOfOrderIncidentInsert(t *testing.T) {
	e, err := New(testTargets(), DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	e.RecordIncident(100, topology.RSW, 1)
	e.RecordIncident(50, topology.RSW, 1) // late arrival
	e.RecordIncident(75, topology.RSW, 1)
	if got := e.countIncidents(topology.RSW, 60, 110); got != 2 {
		t.Errorf("window count over out-of-order inserts = %d, want 2", got)
	}
	if got := e.countIncidents(allTypes, 0, 200); got != 3 {
		t.Errorf("fleet count = %d, want 3", got)
	}
}

func TestNilEngineIsNoOp(t *testing.T) {
	var e *Engine
	e.RecordFault(1, topology.RSW)
	e.RecordRepair(1, topology.RSW)
	e.RecordIncident(1, topology.RSW, 1)
	e.Evaluate(10)
	e.SetLogger(nil)
	e.Instrument(obs.NewRegistry())
	if !e.Healthy() {
		t.Error("nil engine should be healthy")
	}
	rep := e.Report()
	if !rep.Healthy {
		t.Error("nil engine report should be healthy")
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Rule{
		{Name: "", Signal: SignalIncidentBurn, Windows: []float64{1}, Threshold: 1},
		{Name: "w", Signal: SignalIncidentBurn, Threshold: 1},
		{Name: "t", Signal: SignalIncidentBurn, Windows: []float64{1}},
		{Name: "s", Signal: "bogus", Windows: []float64{1}, Threshold: 1},
		{Name: "neg", Signal: SignalMTTR, Windows: []float64{1}, Threshold: 1, For: -1},
		// Type names are case-sensitive: "rsw" names no device type.
		{Name: "type", Type: "rsw", Signal: SignalIncidentBurn, Windows: []float64{1}, Threshold: 1},
	}
	for _, r := range bad {
		if _, err := New(testTargets(), []Rule{r}); err == nil {
			t.Errorf("rule %+v should fail validation", r)
		}
	}
	dup := DefaultRules()
	if _, err := New(testTargets(), append(dup, dup[0])); err == nil {
		t.Error("duplicate rule names should fail")
	}
}

func TestReportJSONAndLogging(t *testing.T) {
	e, err := New(testTargets(), DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	h, err := obs.NewSimHandler(&logBuf, "json", slog.LevelInfo, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLogger(slog.New(h))
	e.RecordFault(10, topology.RSW)
	e.RecordRepair(10, topology.RSW)
	seedIncidents(e, 200, 0, 60*24) // hot enough to transition
	for d := 1; d <= 70; d++ {      // run past the longest window filling
		e.Evaluate(float64(d) * 24)
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep SLOReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Types["RSW"].Faults != 1 || rep.Types["RSW"].Repairs != 1 {
		t.Errorf("fault/repair counts lost: %+v", rep.Types["RSW"])
	}
	if rep.Fleet.Incidents == 0 || rep.Fleet.MTBFHours <= 0 {
		t.Errorf("fleet stats empty: %+v", rep.Fleet)
	}
	if len(rep.Transitions) == 0 {
		t.Fatal("expected at least one transition")
	}
	// Transition logs carry the sim clock of the transition instant.
	line := logBuf.String()
	if !strings.Contains(line, "health alert transition") || !strings.Contains(line, obs.SimHoursKey) {
		t.Errorf("transition log missing or lacks sim_hours: %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(line), "\n")[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec[obs.SimHoursKey].(float64) != rep.Transitions[0].AtSimHours {
		t.Errorf("log sim_hours %v != transition sim time %v", rec[obs.SimHoursKey], rep.Transitions[0].AtSimHours)
	}
}

func TestConcurrentRecordAndReport(t *testing.T) {
	e, err := New(testTargets(), DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			e.RecordIncident(float64(i), topology.RSW, 1)
			if i%50 == 0 {
				e.Evaluate(float64(i))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = e.Report()
			_ = e.Healthy()
		}
	}()
	wg.Wait()
}
