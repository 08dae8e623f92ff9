package health

import (
	"encoding/json"
	"io"

	"dcnr/internal/topology"
)

// SLOReport is a point-in-time summary of the engine's view: live
// reliability statistics per device type over the report window, every
// rule's state and current signal values, and the full transition history.
// It marshals cleanly to JSON (dcsim -health-out, repro /slo).
type SLOReport struct {
	// AsOfSimHours is the simulation time the report reflects.
	AsOfSimHours float64 `json:"as_of_sim_hours"`
	// Year is the calendar year containing AsOfSimHours.
	Year int `json:"year"`
	// WindowHours is the rolling window the per-type statistics cover.
	WindowHours float64 `json:"window_hours"`
	// Healthy is false while any rule is firing.
	Healthy bool `json:"healthy"`
	// Types holds per-device-type statistics over the window.
	Types map[string]TypeSLO `json:"types"`
	// Fleet aggregates the same statistics across all types.
	Fleet TypeSLO `json:"fleet"`
	// Rules reports every rule's live state.
	Rules []RuleStatus `json:"rules"`
	// Transitions is the complete alert transition history, oldest
	// first.
	Transitions []Transition `json:"transitions"`
}

// TypeSLO is the rolling-window reliability summary for one device type.
type TypeSLO struct {
	// Population is the deployed device count in the current year.
	Population int `json:"population"`
	// Faults and Repairs count the full run, not the window: together
	// with Incidents they show how much the repair plane absorbs.
	Faults  int64 `json:"faults_total"`
	Repairs int64 `json:"repairs_total"`
	// Incidents is the number of incidents starting inside the window.
	Incidents int `json:"incidents"`
	// ExpectedIncidents is the calibrated expectation for the window.
	ExpectedIncidents float64 `json:"expected_incidents"`
	// BurnRate is Incidents over the window's error budget
	// (slack × ExpectedIncidents); 0 when the budget is empty.
	BurnRate float64 `json:"burn_rate"`
	// MTBFHours estimates mean device-hours between incidents over the
	// window (population × window / incidents); 0 with no incidents.
	MTBFHours float64 `json:"mtbf_hours"`
	// MTTRMeanHours and MTTRp75Hours summarize resolution times of the
	// window's incidents.
	MTTRMeanHours float64 `json:"mttr_mean_hours"`
	MTTRp75Hours  float64 `json:"mttr_p75_hours"`
}

// RuleStatus is one rule's live state in a report.
type RuleStatus struct {
	Rule
	// State is the lifecycle position: inactive, pending, or firing.
	State string `json:"state"`
	// SinceSimHours is when the rule entered pending (0 when inactive).
	SinceSimHours float64 `json:"since_sim_hours,omitempty"`
	// Values are the last evaluation's signal values, one per window.
	Values []float64 `json:"values"`
}

// Transition is one recorded state-machine edge.
type Transition struct {
	// Rule is the rule's name.
	Rule string `json:"rule"`
	// From and To are the state names.
	From string `json:"from"`
	To   string `json:"to"`
	// AtSimHours is the evaluation instant that caused the edge.
	AtSimHours float64 `json:"at_sim_hours"`
	// Value is the worst window's signal value at that instant.
	Value float64 `json:"value"`
	// Message is the human-readable line for this transition.
	Message string `json:"message"`
}

// Report summarizes the engine at the latest evaluated/recorded sim time.
// A nil engine returns a zero, healthy report.
func (e *Engine) Report() SLOReport {
	if e == nil {
		return SLOReport{Healthy: true, Types: map[string]TypeSLO{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now
	const window = reportWindowHours
	rep := SLOReport{
		AsOfSimHours: now,
		Year:         e.targets.yearOf(now),
		WindowHours:  window,
		Healthy:      true,
		Types:        make(map[string]TypeSLO),
		Transitions:  append([]Transition(nil), e.transitions...),
	}
	for _, dt := range topology.DeviceTypes {
		if e.faults[dt] > 0 || len(e.incidents[dt]) > 0 {
			rep.Types[dt.String()] = e.typeSLO(dt, now, window)
		}
	}
	rep.Fleet = e.typeSLO(allTypes, now, window)
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			rep.Healthy = false
		}
		rep.Rules = append(rep.Rules, RuleStatus{
			Rule:          rs.Rule,
			State:         rs.state.String(),
			SinceSimHours: rs.since,
			Values:        append([]float64(nil), rs.values...),
		})
	}
	return rep
}

// typeSLO computes one type's (or the fleet's) window statistics. Caller
// holds e.mu.
func (e *Engine) typeSLO(dt topology.DeviceType, now, window float64) TypeSLO {
	from := now - window
	s := TypeSLO{
		Population:        e.targets.populationAt(now, dt),
		Incidents:         e.countIncidents(dt, from, now),
		ExpectedIncidents: e.targets.expectedIncidents(dt, from, now),
	}
	if dt == allTypes {
		for _, n := range e.faults {
			s.Faults += n
		}
		for _, n := range e.repairs {
			s.Repairs += n
		}
	} else {
		s.Faults = e.faults[dt]
		s.Repairs = e.repairs[dt]
	}
	if budget := budgetSlack * s.ExpectedIncidents; budget > 0 {
		s.BurnRate = float64(s.Incidents) / budget
	}
	if s.Incidents > 0 {
		span := window
		if now < window {
			span = now
		}
		s.MTBFHours = float64(s.Population) * span / float64(s.Incidents)
		res := e.resolutionsIn(dt, from, now)
		sum := 0.0
		for _, r := range res {
			sum += r
		}
		s.MTTRMeanHours = sum / float64(len(res))
		s.MTTRp75Hours = p75(res)
	}
	return s
}

// WriteJSON writes the current report as indented JSON.
func (e *Engine) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.Report())
}
