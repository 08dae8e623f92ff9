// The metric timeline follows the obs contract: built by timeline.New,
// lanes handed out by Timeline.Lane, both held by pointer, nil meaning
// sampling is off and every sample is dropped for free.
package good

import "dcnr/internal/obs/timeline"

// Dashboard holds the timeline and one lane by pointer; both are nil
// when the run is not sampled.
type Dashboard struct {
	tl   *timeline.Timeline
	lane *timeline.Lane
}

// NewDashboard wires a dashboard; tl may be nil (the no-op timeline,
// whose Lane method returns the no-op lane).
func NewDashboard(tl *timeline.Timeline) *Dashboard {
	return &Dashboard{tl: tl, lane: tl.Lane("des_events_fired_total")}
}

// Mark stages one sample through the nil-safe lane. Sample is plain
// data and moves by value freely.
func (d *Dashboard) Mark(s timeline.Sample) {
	d.lane.Record(s.Col, s.T, s.V)
}

// FreshTimeline builds a timeline the sanctioned way.
func FreshTimeline() *timeline.Timeline { return timeline.New() }
