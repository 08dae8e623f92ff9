package sweep

import (
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dcnr/internal/obs/journal"
	"dcnr/internal/serve"
)

// Run states as stored in a statusCell. The zero value is pending so a
// freshly-initialized table needs no writes.
const (
	statePending int32 = iota
	stateRunning
	stateDone
	stateFailed
)

var stateNames = [...]string{"pending", "running", "done", "failed"}

// Status is the live campaign introspection table: a lock-free per-run
// progress grid the sweep workers update in place, queryable at any
// moment while the campaign runs. Construct with NewStatus, set it on
// Config.Status, and serve Handler — dcsweep's -status-addr does exactly
// that.
//
// The write path is wait-free: each worker touches only its own run's
// cell, and every cell field is an atomic, so progress accounting never
// serializes the worker pool. Readers (Snapshot, the HTTP handlers)
// assemble a consistent-enough view from the atomics without stopping
// anyone.
//
// All recording methods are safe on a nil *Status, matching the
// project-wide observability nil contract.
type Status struct {
	// specs and cells are written once by begin and immutable
	// afterwards. begin stores startNS after them, so a reader on another
	// goroutine touches them only after loading a nonzero startNS (see
	// table).
	specs   []runSpec
	cells   []statusCell
	startNS atomic.Int64 // campaign start, wall nanos

	// jmu guards the per-run journal summaries behind the /journal
	// endpoint (cold path: one write per completed run).
	jmu       sync.Mutex
	summaries map[int]journal.Summary
}

// statusCell is one run's progress state; every field is atomic so the
// owning worker writes without a lock.
type statusCell struct {
	state     atomic.Int32
	startNS   atomic.Int64
	endNS     atomic.Int64
	faults    atomic.Int64
	incidents atomic.Int64

	// Resource attribution, stored by done. The float fields travel as
	// IEEE-754 bits so the cell stays all-atomic.
	events       atomic.Int64
	simHoursBits atomic.Uint64
	cpuSecBits   atomic.Uint64
	allocBytes   atomic.Uint64
}

// NewStatus returns an empty status table, ready for Config.Status.
func NewStatus() *Status { return &Status{} }

// begin sizes the table for the expanded grid. Called once by Run.
func (s *Status) begin(specs []runSpec) {
	if s == nil {
		return
	}
	s.specs = specs
	s.cells = make([]statusCell, len(specs))
	s.startNS.Store(time.Now().UnixNano())
}

// table returns the run specs and cells once begin has published them,
// and nil before: the nonzero startNS load orders the caller's reads after
// begin's writes.
func (s *Status) table() ([]runSpec, []statusCell) {
	if s.startNS.Load() == 0 {
		return nil, nil
	}
	return s.specs, s.cells
}

// start marks run i running.
func (s *Status) start(i int) {
	if s == nil {
		return
	}
	c := &s.cells[i]
	c.startNS.Store(time.Now().UnixNano())
	c.state.Store(stateRunning)
}

// done marks run i completed and records its resource attribution.
func (s *Status) done(i int, st *RunStats, res Resources) {
	if s == nil {
		return
	}
	c := &s.cells[i]
	c.faults.Store(int64(st.Faults))
	c.incidents.Store(int64(st.Incidents))
	c.events.Store(res.Events)
	c.simHoursBits.Store(math.Float64bits(res.SimHours))
	c.cpuSecBits.Store(math.Float64bits(res.CPUSeconds))
	c.allocBytes.Store(res.AllocBytes)
	c.endNS.Store(time.Now().UnixNano())
	c.state.Store(stateDone)
}

// fail marks run i failed.
func (s *Status) fail(i int) {
	if s == nil {
		return
	}
	c := &s.cells[i]
	c.endNS.Store(time.Now().UnixNano())
	c.state.Store(stateFailed)
}

// setJournal stores run i's journal summary for the /journal endpoint.
func (s *Status) setJournal(i int, sum journal.Summary) {
	if s == nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.summaries == nil {
		s.summaries = make(map[int]journal.Summary)
	}
	s.summaries[i] = sum
}

// RunStatus is one run's row in a CampaignStatus.
type RunStatus struct {
	Run      int    `json:"run"`
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Scale    int    `json:"scale"`
	State    string `json:"state"`
	// StartSeconds is when the run started, in wall seconds after the
	// campaign started; set once the run has started. A finished run
	// ended at StartSeconds + ElapsedSeconds.
	StartSeconds float64 `json:"start_seconds,omitempty"`
	// ElapsedSeconds is the run's wall time: running so far, or total once
	// finished.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Straggler flags a running run whose elapsed wall time sits more than
	// two standard deviations above the mean of completed runs.
	Straggler bool `json:"straggler,omitempty"`
	Faults    int  `json:"faults,omitempty"`
	Incidents int  `json:"incidents,omitempty"`
	// Resource attribution, set once the run finishes. Events and
	// SimHoursPerSec/EventsPerSec are exact per-run numbers; CPUSeconds
	// and AllocBytes are process-level deltas over the run's window — an
	// approximation when workers overlap (see Resources).
	Events         int64   `json:"events,omitempty"`
	SimHoursPerSec float64 `json:"sim_hours_per_sec,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	CPUSeconds     float64 `json:"cpu_seconds,omitempty"`
	AllocBytes     uint64  `json:"alloc_bytes,omitempty"`
}

// CampaignStatus is the live campaign snapshot the /campaign endpoint
// serves: aggregate progress, live cross-run bands over the completed
// runs, and the per-run grid.
type CampaignStatus struct {
	Total          int     `json:"total"`
	Completed      int     `json:"completed"`
	Running        int     `json:"running"`
	Failed         int     `json:"failed"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Events and SimHours total the completed runs' attribution — how much
	// simulation the campaign has chewed through so far.
	Events   int64   `json:"events"`
	SimHours float64 `json:"sim_hours"`
	// Faults and Incidents band the completed runs' counts — the report's
	// cross-run variance, watchable while the campaign is still going.
	Faults    Band        `json:"faults"`
	Incidents Band        `json:"incidents"`
	Runs      []RunStatus `json:"runs"`
}

// stragglerZ is the z-score threshold above which a running run is
// flagged, and stragglerMinDone the completed-run floor below which no
// flagging happens (a z-score over two samples is noise).
const (
	stragglerZ       = 2.0
	stragglerMinDone = 3
)

// Snapshot assembles the current campaign view. Safe to call at any time
// from any goroutine; returns the zero value on a nil status.
func (s *Status) Snapshot() CampaignStatus {
	if s == nil {
		return CampaignStatus{}
	}
	now := time.Now()
	specs, cells := s.table()
	cs := CampaignStatus{Total: len(cells)}
	start := s.startNS.Load()
	if start != 0 {
		cs.ElapsedSeconds = now.Sub(time.Unix(0, start)).Seconds()
	}
	var (
		faults, incidents, durations []float64
		rows                         = make([]RunStatus, len(cells))
	)
	for i := range cells {
		c := &cells[i]
		spec := specs[i]
		row := RunStatus{
			Run: spec.run, Scenario: spec.scenario.Name,
			Seed: spec.seed, Scale: spec.scale,
		}
		state := c.state.Load()
		row.State = stateNames[state]
		if state != statePending {
			row.StartSeconds = time.Duration(c.startNS.Load() - start).Seconds()
		}
		switch state {
		case stateRunning:
			cs.Running++
			row.ElapsedSeconds = now.Sub(time.Unix(0, c.startNS.Load())).Seconds()
		case stateDone:
			cs.Completed++
			row.ElapsedSeconds = time.Duration(c.endNS.Load() - c.startNS.Load()).Seconds()
			row.Faults = int(c.faults.Load())
			row.Incidents = int(c.incidents.Load())
			row.Events = c.events.Load()
			simHours := math.Float64frombits(c.simHoursBits.Load())
			row.CPUSeconds = math.Float64frombits(c.cpuSecBits.Load())
			row.AllocBytes = c.allocBytes.Load()
			if row.ElapsedSeconds > 0 {
				row.SimHoursPerSec = simHours / row.ElapsedSeconds
				row.EventsPerSec = float64(row.Events) / row.ElapsedSeconds
			}
			cs.Events += row.Events
			cs.SimHours += simHours
			faults = append(faults, float64(row.Faults))
			incidents = append(incidents, float64(row.Incidents))
			durations = append(durations, row.ElapsedSeconds)
		case stateFailed:
			cs.Failed++
			row.ElapsedSeconds = time.Duration(c.endNS.Load() - c.startNS.Load()).Seconds()
		}
		rows[i] = row
	}
	// Straggler flagging: z-score of each running run's elapsed time
	// against the completed runs' wall-time distribution.
	if mean, std, ok := meanStd(durations); ok {
		for i := range rows {
			if rows[i].State != stateNames[stateRunning] {
				continue
			}
			z := (rows[i].ElapsedSeconds - mean) / std
			rows[i].Straggler = z > stragglerZ
		}
	}
	cs.Faults = bandOf(faults)
	cs.Incidents = bandOf(incidents)
	cs.Runs = rows
	return cs
}

// meanStd returns the mean and standard deviation of xs, with ok false
// when there are too few samples (or no spread) for a meaningful z-score.
func meanStd(xs []float64) (mean, std float64, ok bool) {
	if len(xs) < stragglerMinDone {
		return 0, 0, false
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	std = math.Sqrt(ss / float64(len(xs)))
	return mean, std, std > 0
}

// JournalSummary merges the journal summaries of every completed run (in
// run order) into one campaign-level summary, reporting how many runs
// contributed.
func (s *Status) JournalSummary() (journal.Summary, int) {
	if s == nil {
		return journal.Summary{}, 0
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	ordered := make([]journal.Summary, 0, len(s.summaries))
	_, cells := s.table()
	for i := range cells {
		if sum, ok := s.summaries[i]; ok {
			ordered = append(ordered, sum)
		}
	}
	return journal.MergeSummaries(ordered), len(ordered)
}

// Handler serves the campaign introspection endpoints:
//
//	/campaign  live CampaignStatus as JSON
//	/journal   merged causal-journal summary of completed runs
//
// Both are pulled: a watcher polls them (dcnrtop does, once a frame).
func (s *Status) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaign", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, s.Snapshot())
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		sum, runs := s.JournalSummary()
		serve.WriteJSON(w, struct {
			Runs    int             `json:"runs_journaled"`
			Summary journal.Summary `json:"summary"`
		}{runs, sum})
	})
	return mux
}
