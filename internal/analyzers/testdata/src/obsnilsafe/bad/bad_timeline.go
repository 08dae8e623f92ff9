// Hand-rolled timelines: only timeline.New wires the column table and
// staging ring, and only a pointer can be the nil no-op timeline.
package bad

import "dcnr/internal/obs/timeline"

// Dashboard holds a timeline by value: copying forks the column table
// and the staging ring behind the sample view.
type Dashboard struct {
	history timeline.Timeline
}

// HiddenTimeline builds timelines that bypass the constructor.
func HiddenTimeline() *timeline.Timeline {
	_ = timeline.Timeline{}
	return new(timeline.Timeline)
}

// CopiedTimelineRing takes a timeline by value, forking its staging ring.
func CopiedTimelineRing(t timeline.Timeline) {}
