// Package sev implements Service-level EVents (SEVs), the incident reports
// at the center of the study's intra-data-center methodology (§4.2).
//
// A SEV documents one production incident: the offending network device,
// the root cause(s) chosen by the authoring engineer, the severity level
// (SEV1 highest … SEV3 lowest), and the incident's timing. Reports are held
// in a Store and analyzed through a typed query API that stands in for the
// SQL queries the paper ran against its MySQL SEV database.
package sev

import (
	"errors"
	"fmt"
	"math"

	"dcnr/internal/topology"
)

// Severity is a SEV level. Lower numeric value = higher severity, matching
// the paper's naming (SEV1 is the highest severity).
type Severity int

const (
	// Sev1 is the highest severity: entire product or data center outage
	// (Table 3).
	Sev1 Severity = 1
	// Sev2 is a service outage affecting a particular feature or a
	// regional network impairment.
	Sev2 Severity = 2
	// Sev3 is the lowest severity: redundant or contained failures with
	// minimal customer impact.
	Sev3 Severity = 3
)

// Severities lists the levels from most to least severe.
var Severities = []Severity{Sev1, Sev2, Sev3}

// String returns "SEV1".."SEV3".
func (s Severity) String() string {
	if s < Sev1 || s > Sev3 {
		return fmt.Sprintf("Severity(%d)", int(s))
	}
	return fmt.Sprintf("SEV%d", int(s))
}

// Valid reports whether s is a defined severity level.
func (s Severity) Valid() bool { return s >= Sev1 && s <= Sev3 }

// RootCause is a category from the paper's SEV authoring workflow
// (Table 2). A SEV may carry multiple root causes; a SEV with none is
// counted as Undetermined.
type RootCause int

const (
	// Undetermined marks an inconclusive root cause.
	Undetermined RootCause = iota
	// Maintenance covers routine-maintenance failures such as botched
	// software or firmware upgrades.
	Maintenance
	// Hardware covers failing devices: faulty memory, processors, ports.
	Hardware
	// Configuration covers incorrect or unintended configurations.
	Configuration
	// Bug covers logical errors in device software or firmware.
	Bug
	// Accident covers unintended actions, e.g. power cycling the wrong
	// device.
	Accident
	// Capacity covers high load due to insufficient capacity planning.
	Capacity

	numRootCauses = int(Capacity) + 1
)

// RootCauses lists the categories in the paper's Table 2 order.
var RootCauses = []RootCause{Maintenance, Hardware, Configuration, Bug, Accident, Capacity, Undetermined}

var rootCauseNames = [numRootCauses]string{
	Undetermined:  "Undetermined",
	Maintenance:   "Maintenance",
	Hardware:      "Hardware",
	Configuration: "Configuration",
	Bug:           "Bug",
	Accident:      "Accidents",
	Capacity:      "Capacity planning",
}

// String returns the category's display name from Table 2.
func (c RootCause) String() string {
	if c < 0 || int(c) >= numRootCauses {
		return fmt.Sprintf("RootCause(%d)", int(c))
	}
	return rootCauseNames[c]
}

// HumanInduced reports whether the category is a human-induced software
// issue; §5.1 observes these occur at nearly double the rate of hardware
// failures.
func (c RootCause) HumanInduced() bool {
	return c == Configuration || c == Bug
}

// Report is one SEV. Times are hours since the simulation epoch
// (Jan 1 of the first study year).
type Report struct {
	// ID is the store-assigned sequence number.
	ID int `json:"id"`
	// Severity is the incident's high-water-mark level; it is never
	// downgraded (§5.3).
	Severity Severity `json:"severity"`
	// Device is the name of the offending network device; its prefix
	// encodes the device type per the naming convention.
	Device string `json:"device"`
	// RootCauses are the categories the authoring engineer selected.
	// Empty means undetermined.
	RootCauses []RootCause `json:"root_causes"`
	// Start is when the root cause manifested, in hours since epoch.
	Start float64 `json:"start"`
	// Duration is the incident duration in hours: root-cause
	// manifestation until the fix landed.
	Duration float64 `json:"duration"`
	// Resolution is the time in hours until engineers closed the SEV,
	// including prevention work; always >= Duration (§5.6).
	Resolution float64 `json:"resolution"`
	// Year is the calendar year the incident started in.
	Year int `json:"year"`
	// Title summarizes the incident.
	Title string `json:"title"`
	// Impact describes the service-level effect (lost capacity, retries,
	// partitioned connectivity, congestion).
	Impact string `json:"impact"`
	// ServicesAffected names the production systems the incident touched.
	ServicesAffected []string `json:"services_affected,omitempty"`
	// Reviewed records whether the report passed the SEV review process.
	Reviewed bool `json:"reviewed"`
	// Reviewer records who signed off during the §4.2 review process.
	Reviewer string `json:"reviewer,omitempty"`
}

// DeviceType parses the offending device's type from its name.
func (r *Report) DeviceType() (topology.DeviceType, error) {
	return topology.ParseDeviceName(r.Device)
}

// Design returns the network design of the offending device, or
// DesignShared when the device name does not parse.
func (r *Report) Design() topology.Design {
	t, err := r.DeviceType()
	if err != nil {
		return topology.DesignShared
	}
	return t.Design()
}

// EffectiveRootCauses returns the report's root causes, or
// [Undetermined] when the engineer recorded none.
func (r *Report) EffectiveRootCauses() []RootCause {
	if len(r.RootCauses) == 0 {
		return []RootCause{Undetermined}
	}
	return r.RootCauses
}

// Validate checks report invariants. Store.Add rejects invalid reports.
func (r *Report) Validate() error {
	_, err := r.validate()
	return err
}

// validate is Validate, also returning the device type it parsed from the
// name, which the store indexes the report under.
func (r *Report) validate() (topology.DeviceType, error) {
	t, err := topology.ParseDeviceName(r.Device)
	switch {
	case !r.Severity.Valid():
		return 0, fmt.Errorf("sev: invalid severity %d", int(r.Severity))
	case r.Device == "":
		return 0, errors.New("sev: missing device")
	case err != nil:
		return 0, fmt.Errorf("sev: %w", err)
	// Non-finite times pass the ordered comparisons below (NaN < 0 is
	// false), so they are refused here; JSON cannot carry them, so only an
	// in-process caller can supply one.
	case !finite(r.Start) || !finite(r.Duration) || !finite(r.Resolution):
		return 0, errors.New("sev: non-finite time")
	case r.Duration < 0 || r.Resolution < 0:
		return 0, errors.New("sev: negative duration")
	case r.Resolution < r.Duration:
		return 0, errors.New("sev: resolution shorter than duration")
	case r.Start < 0:
		return 0, errors.New("sev: negative start time")
	}
	for _, c := range r.RootCauses {
		if c < 0 || int(c) >= numRootCauses {
			return 0, fmt.Errorf("sev: invalid root cause %d", int(c))
		}
	}
	return t, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
