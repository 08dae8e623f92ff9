// The metric timeline follows the obs contract: built by timeline.New,
// held by pointer, nil meaning sampling is off and every sample is
// dropped for free.
package good

import "dcnr/internal/obs/timeline"

// Dashboard holds the timeline by pointer; it is nil when the run is not
// sampled.
type Dashboard struct {
	tl  *timeline.Timeline
	col int32
}

// NewDashboard wires a dashboard; tl may be nil (the no-op timeline,
// whose Column method returns 0).
func NewDashboard(tl *timeline.Timeline) *Dashboard {
	return &Dashboard{tl: tl, col: tl.Column("des_events_fired_total")}
}

// Mark stages one sample through the nil-safe timeline. Sample is plain
// data and moves by value freely.
func (d *Dashboard) Mark(s timeline.Sample) {
	d.tl.Record(d.col, s.T, s.V)
}

// FreshTimeline builds a timeline the sanctioned way.
func FreshTimeline() *timeline.Timeline { return timeline.New() }
