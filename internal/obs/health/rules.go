package health

import (
	"fmt"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// Signal names a quantity a rule evaluates. Burn-style signals are ratios:
// 1.0 means exactly on budget/target, higher is worse.
type Signal string

const (
	// SignalIncidentBurn is the error-budget burn rate of incident
	// volume: incidents observed in the window divided by the window's
	// budget (slack × calibrated expectation).
	SignalIncidentBurn Signal = "incident_burn"
	// SignalMTTR is the ratio of the window's observed p75 resolution
	// time to the calibrated p75 target for the current year.
	SignalMTTR Signal = "mttr"
)

// Rule is one declarative alert condition. The rule's condition is true at
// an evaluation instant when the signal meets or exceeds Threshold over
// EVERY window (the SRE multi-window AND: the long window proves budget is
// really gone, the short one proves it is still burning). A true condition
// moves the rule Inactive→Pending; holding for For sim-hours moves it
// Pending→Firing; the first false evaluation returns it to Inactive
// (resolved).
type Rule struct {
	// Name identifies the rule in reports, notifications, and the
	// health_burn_<name> gauge. Must be unique and non-empty.
	Name string `json:"name"`
	// Type restricts the signal to one device type, named as
	// topology.DeviceType prints it (e.g. "RSW"); FleetWide ("") spans the
	// fleet. New rejects any other name.
	Type string `json:"type,omitempty"`
	// Signal selects the evaluated quantity.
	Signal Signal `json:"signal"`
	// Windows are the rolling window lengths in sim-hours; all must
	// breach Threshold for the condition to hold.
	Windows []float64 `json:"windows_hours"`
	// Threshold is the signal level at which the condition holds.
	Threshold float64 `json:"threshold"`
	// For is how long, in sim-hours, the condition must hold
	// continuously before the rule fires.
	For float64 `json:"for_hours"`
}

// validate checks r and returns the device type its Type names (allTypes
// for FleetWide).
func (r Rule) validate() (topology.DeviceType, error) {
	if r.Name == "" {
		return 0, fmt.Errorf("health: rule with empty name")
	}
	if len(r.Windows) == 0 {
		return 0, fmt.Errorf("health: rule %q has no windows", r.Name)
	}
	for _, w := range r.Windows {
		if w <= 0 {
			return 0, fmt.Errorf("health: rule %q has non-positive window %v", r.Name, w)
		}
	}
	if r.Threshold <= 0 {
		return 0, fmt.Errorf("health: rule %q has non-positive threshold %v", r.Name, r.Threshold)
	}
	if r.For < 0 {
		return 0, fmt.Errorf("health: rule %q has negative for-duration %v", r.Name, r.For)
	}
	switch r.Signal {
	case SignalIncidentBurn, SignalMTTR:
	default:
		return 0, fmt.Errorf("health: rule %q has unknown signal %q", r.Name, r.Signal)
	}
	if r.Type == FleetWide {
		return allTypes, nil
	}
	for _, dt := range topology.DeviceTypes {
		if dt.String() == r.Type {
			return dt, nil
		}
	}
	return 0, fmt.Errorf("health: rule %q has unknown device type %q", r.Name, r.Type)
}

// DefaultRules returns the standard intra-DC rule set. A calibrated run
// burns ≈ 1/slack ≈ 0.67 of its incident budget, so the fast-burn
// threshold of 2.0 needs roughly a 3× sustained elevation over two weeks,
// while the slow-burn rule catches milder elevation (≈ 2×) sustained over
// months. MTTR degradation pages when the observed p75 holds at 2.5× its
// calibration for two weeks — the threshold sits ~2.5 standard errors
// above the sample-p75 noise floor at the minimum sample count, so tail
// resolution draws alone do not page.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:      "incident-fast-burn",
			Signal:    SignalIncidentBurn,
			Windows:   []float64{15 * 24, 60 * 24},
			Threshold: 2.0,
			For:       48,
		},
		{
			Name:      "incident-slow-burn",
			Signal:    SignalIncidentBurn,
			Windows:   []float64{60 * 24, 180 * 24},
			Threshold: 1.35,
			For:       168,
		},
		{
			Name:      "mttr-degradation",
			Signal:    SignalMTTR,
			Windows:   []float64{90 * 24},
			Threshold: 2.5,
			For:       336,
		},
	}
}

// State is an alert rule's position in the pending→firing lifecycle.
type State int

const (
	// StateInactive: the condition is false.
	StateInactive State = iota
	// StatePending: the condition is true but has not yet held for the
	// rule's For duration.
	StatePending
	// StateFiring: the condition has held continuously for at least For.
	StateFiring
)

// String returns the lowercase state name used in reports and logs.
func (s State) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ruleState is a Rule plus its live evaluation state.
type ruleState struct {
	Rule
	typ    topology.DeviceType // Rule.Type resolved; allTypes for FleetWide
	state  State
	since  float64   // sim-hour the rule entered pending (then firing)
	values []float64 // last evaluation's per-window signal values
	gauge  *obs.Gauge
}
