package dcnr

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestHealthEngineElevatedScenario is the acceptance scenario: a full
// study-period run with one year's fault rate elevated 5× must drive a
// burn-rate rule through pending→firing→resolved, with the walk visible in
// the SLO report (with each transition's message text) and the structured
// logs — both stamped with matching simulation timestamps.
func TestHealthEngineElevatedScenario(t *testing.T) {
	eng, err := NewHealthEngine(HealthTargetsForScale(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	var logBuf bytes.Buffer
	h, err := NewSimLogHandler(&logBuf, "json", slog.LevelInfo, reg.Gauge("des_sim_hours"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateIntraDC(IntraConfig{
		Seed:          7,
		Observe:       Observe{Metrics: reg, Health: eng, Logger: slog.New(h)},
		ElevateYear:   2014,
		ElevateFactor: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() == 0 {
		t.Fatal("no SEVs generated")
	}

	rep := eng.Report()
	// The elevated year ended two sim-years before the run did, so every
	// window has drained: the run must end healthy again.
	if !rep.Healthy {
		t.Errorf("run should end healthy after windows drain: %+v", rep.Rules)
	}

	// At least one burn rule walked the full lifecycle.
	walks := map[string][]string{}
	for _, tr := range rep.Transitions {
		walks[tr.Rule] = append(walks[tr.Rule], tr.From+">"+tr.To)
	}
	fullWalk := ""
	for rule, w := range walks {
		joined := strings.Join(w, " ")
		if strings.Contains(joined, "inactive>pending") &&
			strings.Contains(joined, "pending>firing") &&
			strings.Contains(joined, "firing>inactive") {
			fullWalk = rule
		}
	}
	if fullWalk == "" {
		t.Fatalf("no rule completed pending→firing→resolved; transitions: %+v", rep.Transitions)
	}

	// Firing transitions land inside or just after the elevated year.
	for _, tr := range rep.Transitions {
		if tr.Rule == fullWalk && tr.To == "firing" {
			year := FirstYear + int(tr.AtSimHours/(365*24))
			if year < 2014 || year > 2015 {
				t.Errorf("rule %s fired in %d, expected during/just after elevated 2014", fullWalk, year)
			}
		}
	}

	// The fully walked rule's firing transition carries its message text.
	firingMsg := false
	for _, tr := range rep.Transitions {
		if strings.Contains(tr.Message, fullWalk) && strings.Contains(tr.Message, "-> firing") {
			firingMsg = true
		}
	}
	if !firingMsg {
		t.Errorf("no firing message for %s in %+v", fullWalk, rep.Transitions)
	}

	// Structured logs: the firing transition is logged with the same sim
	// timestamp the report records, alongside a wall-clock stamp.
	type logRec struct {
		Msg      string  `json:"msg"`
		Rule     string  `json:"rule"`
		To       string  `json:"to"`
		SimHours float64 `json:"sim_hours"`
		Time     string  `json:"time"`
	}
	simTimes := map[string]bool{}
	sawIncident := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var lr logRec
		if err := json.Unmarshal([]byte(line), &lr); err != nil {
			t.Fatalf("invalid log line: %v\n%s", err, line)
		}
		if lr.Time == "" {
			t.Fatalf("log line lost wall clock: %s", line)
		}
		if lr.Msg == "health alert transition" && lr.To == "firing" {
			simTimes[lr.Rule] = true
			found := false
			for _, tr := range rep.Transitions {
				if tr.Rule == lr.Rule && tr.To == "firing" && tr.AtSimHours == lr.SimHours {
					found = true
				}
			}
			if !found {
				t.Errorf("log sim_hours %v has no matching transition for %s", lr.SimHours, lr.Rule)
			}
		}
		if lr.Msg == "incident escalated" {
			sawIncident = true
			if lr.SimHours == 0 {
				t.Errorf("incident log without sim clock: %s", line)
			}
		}
	}
	if !simTimes[fullWalk] {
		t.Errorf("firing transition of %s never logged", fullWalk)
	}
	if !sawIncident {
		t.Error("no incident logs at info level")
	}

	// Health metrics surfaced in the shared registry.
	snap := reg.Snapshot()
	if snap.Counters["health_transitions_total"] != int64(len(rep.Transitions)) {
		t.Errorf("health_transitions_total = %d, want %d",
			snap.Counters["health_transitions_total"], len(rep.Transitions))
	}
	if snap.Counters["health_evaluations_total"] == 0 {
		t.Error("no health evaluations counted")
	}
	if int64(res.Incidents) != snap.Counters["health_incidents_total"] {
		t.Errorf("health_incidents_total = %d, want %d",
			snap.Counters["health_incidents_total"], res.Incidents)
	}
}

// TestHealthEngineCalibratedRunStaysQuiet guards the alert thresholds
// against false positives: an unelevated run must not fire any rule.
func TestHealthEngineCalibratedRunStaysQuiet(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		eng, err := NewHealthEngine(HealthTargetsForScale(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SimulateIntraDC(IntraConfig{Seed: seed, Observe: Observe{Health: eng}}); err != nil {
			t.Fatal(err)
		}
		rep := eng.Report()
		for _, tr := range rep.Transitions {
			if tr.To == "firing" {
				t.Errorf("seed %d: rule %s fired on a calibrated run (value %.2f)", seed, tr.Rule, tr.Value)
			}
		}
	}
}

// TestSLOReportJSONRoundTrip keeps the report wire format stable for the
// /slo endpoint and -health-out consumers.
func TestSLOReportJSONRoundTrip(t *testing.T) {
	eng, err := NewHealthEngine(HealthTargetsForScale(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateIntraDC(IntraConfig{Seed: 2, FromYear: 2016, ToYear: 2017, Observe: Observe{Health: eng}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep SLOReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(rep.Types) == 0 || rep.Fleet.Incidents == 0 {
		t.Errorf("round-tripped report lost data: %+v", rep)
	}
	if rep.Types["RSW"].Population == 0 {
		t.Error("RSW population missing from report")
	}
}

// TestSLOReportDeterministic runs seed 7 twice and requires the two SLO
// reports to match byte for byte: the expected-incident integrals behind
// budgets and burn rates must not depend on map iteration order.
func TestSLOReportDeterministic(t *testing.T) {
	report := func() []byte {
		t.Helper()
		eng, err := NewHealthEngine(HealthTargetsForScale(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := IntraConfig{Seed: 7, FromYear: 2012, ToYear: 2015, Observe: Observe{Health: eng}}
		if _, err := SimulateIntraDC(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := report(), report(); !bytes.Equal(a, b) {
		t.Errorf("two seed-7 runs wrote different SLO reports (%d vs %d bytes)", len(a), len(b))
	}
}
