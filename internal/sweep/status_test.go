package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcnr/internal/obs/journal"
)

// TestSweepJournalDeterministicAcrossWorkers pins the campaign journal
// stream: byte-identical at any worker count, one header line plus the
// run's records per grid cell, in run order.
func TestSweepJournalDeterministicAcrossWorkers(t *testing.T) {
	var streams [2]string
	for i, workers := range []int{1, 4} {
		cfg := fastGrid()
		cfg.Workers = workers
		var jnl bytes.Buffer
		cfg.Journal = &jnl
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		streams[i] = jnl.String()
	}
	if streams[0] != streams[1] {
		t.Fatalf("journal streams differ between 1 and 4 workers (%d vs %d bytes)",
			len(streams[0]), len(streams[1]))
	}
	// The stream interleaves run headers and records; headers carry run
	// numbers in order and their record counts match the lines between them.
	lines := strings.Split(strings.TrimSpace(streams[0]), "\n")
	run, recorded, want := -1, 0, 0
	for _, line := range lines {
		var hdr struct {
			Run      *int   `json:"run"`
			Records  int    `json:"records"`
			ID       int    `json:"id"`
			Scenario string `json:"scenario"`
		}
		if err := json.Unmarshal([]byte(line), &hdr); err != nil {
			t.Fatalf("unparseable journal line: %q: %v", line, err)
		}
		if hdr.ID == 0 { // header line
			if hdr.Run == nil || *hdr.Run != run+1 {
				t.Fatalf("journal headers out of order at %q (after run %d)", line, run)
			}
			if recorded != want {
				t.Fatalf("run %d streamed %d records, header said %d", run, recorded, want)
			}
			run, recorded, want = *hdr.Run, 0, hdr.Records
			continue
		}
		recorded++
	}
	if run != 3 || recorded != want {
		t.Fatalf("journal stream ended at run %d with %d/%d records", run, recorded, want)
	}
	if want == 0 {
		t.Fatalf("final run journaled no records")
	}
}

// TestSweepReportUnchangedByIntrospection pins the no-observer-effect
// contract at campaign level: attaching a live status table and a journal
// stream leaves sweep_report.json and the results JSONL byte-identical.
func TestSweepReportUnchangedByIntrospection(t *testing.T) {
	var reports, streams [2][]byte
	for i, introspect := range []bool{false, true} {
		cfg := fastGrid()
		cfg.Workers = 4
		var jsonl bytes.Buffer
		cfg.Results = &jsonl
		if introspect {
			cfg.Status = NewStatus()
			cfg.Journal = &bytes.Buffer{}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(introspect=%v): %v", introspect, err)
		}
		var rep bytes.Buffer
		if err := res.WriteReport(&rep); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		reports[i] = rep.Bytes()
		streams[i] = jsonl.Bytes()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("introspection changed the campaign report")
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Errorf("introspection changed the results JSONL stream")
	}
}

// TestSweepRunJoinsStreamErrors is the regression for the dropped flush
// error: a broken results or journal writer must surface in Run's returned
// error on every exit path, including when the write failure also aborts
// the failing run.
func TestSweepRunJoinsStreamErrors(t *testing.T) {
	t.Run("results", func(t *testing.T) {
		cfg := fastGrid()
		cfg.Workers = 2
		cfg.Results = &failAfter{}
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("Run succeeded past a broken results writer")
		}
		if !errors.Is(err, errWriterBroken) {
			t.Fatalf("Run error lost the writer failure: %v", err)
		}
		if !strings.Contains(err.Error(), "streaming results:") {
			t.Fatalf("flush error not joined into Run error: %v", err)
		}
	})
	t.Run("journal", func(t *testing.T) {
		cfg := fastGrid()
		cfg.Workers = 2
		cfg.Journal = &failAfter{}
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("Run succeeded past a broken journal writer")
		}
		if !errors.Is(err, errWriterBroken) {
			t.Fatalf("Run error lost the writer failure: %v", err)
		}
		if !strings.Contains(err.Error(), "streaming journal:") {
			t.Fatalf("journal flush error not joined into Run error: %v", err)
		}
	})
}

// TestSweepStatusLifecycle drives a campaign with a live status table and
// checks the final snapshot and the merged journal summary.
func TestSweepStatusLifecycle(t *testing.T) {
	cfg := fastGrid()
	cfg.Workers = 2
	st := NewStatus()
	cfg.Status = st

	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}

	cs := st.Snapshot()
	if cs.Total != 4 || cs.Completed != 4 || cs.Running != 0 || cs.Failed != 0 {
		t.Fatalf("snapshot = total %d completed %d running %d failed %d",
			cs.Total, cs.Completed, cs.Running, cs.Failed)
	}
	if cs.Faults.N != 4 || cs.Faults.Mean <= 0 {
		t.Errorf("faults band not populated: %+v", cs.Faults)
	}
	if cs.Incidents.N != 4 || cs.Incidents.P5 > cs.Incidents.P95 {
		t.Errorf("incidents band malformed: %+v", cs.Incidents)
	}
	for i, r := range cs.Runs {
		if r.Run != i || r.State != "done" {
			t.Errorf("run %d: row %+v", i, r)
		}
		if r.Faults <= 0 || r.Incidents <= 0 {
			t.Errorf("run %d: counts not recorded: %+v", i, r)
		}
		// A run starts after the campaign did and ends before the
		// snapshot was taken.
		if r.StartSeconds <= 0 || r.StartSeconds+r.ElapsedSeconds > cs.ElapsedSeconds {
			t.Errorf("run %d: start %gs + elapsed %gs outside the campaign's %gs",
				i, r.StartSeconds, r.ElapsedSeconds, cs.ElapsedSeconds)
		}
	}

	sum, runs := st.JournalSummary()
	if runs != 4 {
		t.Fatalf("journal summary covers %d runs, want 4", runs)
	}
	if sum.Faults <= 0 || sum.Incidents <= 0 || sum.Incomplete != 0 {
		t.Errorf("merged journal summary malformed: %+v", sum)
	}
}

// TestSweepStatusHandler exercises the /campaign and /journal endpoints
// against a completed campaign.
func TestSweepStatusHandler(t *testing.T) {
	cfg := fastGrid()
	st := NewStatus()
	cfg.Status = st
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := st.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/campaign", nil))
	if rec.Code != 200 {
		t.Fatalf("/campaign: status %d", rec.Code)
	}
	var cs CampaignStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatalf("/campaign: %v", err)
	}
	if cs.Total != 4 || cs.Completed != 4 {
		t.Errorf("/campaign reported %d/%d runs", cs.Completed, cs.Total)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/journal", nil))
	if rec.Code != 200 {
		t.Fatalf("/journal: status %d", rec.Code)
	}
	var jr struct {
		Runs    int `json:"runs_journaled"`
		Summary struct {
			Incidents int `json:"incidents"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
		t.Fatalf("/journal: %v", err)
	}
	if jr.Runs != 4 || jr.Summary.Incidents <= 0 {
		t.Errorf("/journal = %+v", jr)
	}

	// The handler serves only the two pulled endpoints.
	for _, path := range []string{"/campaign/events", "/metrics/history", "/metrics/history/events"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestSweepStatusStragglers builds a status table by hand: three completed
// runs with tight wall times and one running run far beyond them must be
// flagged; with too few completed runs, nothing is.
func TestSweepStatusStragglers(t *testing.T) {
	specs := []runSpec{
		{run: 0, scenario: Scenario{Name: "a"}},
		{run: 1, scenario: Scenario{Name: "a"}},
		{run: 2, scenario: Scenario{Name: "a"}},
		{run: 3, scenario: Scenario{Name: "a"}},
	}
	st := NewStatus()
	st.begin(specs)
	now := time.Now()
	for i, d := range []time.Duration{time.Second, 2 * time.Second, time.Second} {
		c := &st.cells[i]
		c.startNS.Store(now.Add(-time.Minute).UnixNano())
		c.endNS.Store(now.Add(-time.Minute).Add(d).UnixNano())
		c.state.Store(stateDone)
	}
	// Run 3 started ten minutes ago and is still going: z ≫ 2.
	st.cells[3].startNS.Store(now.Add(-10 * time.Minute).UnixNano())
	st.cells[3].state.Store(stateRunning)

	cs := st.Snapshot()
	if !cs.Runs[3].Straggler {
		t.Errorf("long-running run not flagged: %+v", cs.Runs[3])
	}
	for i := 0; i < 3; i++ {
		if cs.Runs[i].Straggler {
			t.Errorf("completed run %d flagged as straggler", i)
		}
	}

	// With only two completed runs there is no distribution to flag
	// against.
	st.cells[2].state.Store(stateRunning)
	if cs := st.Snapshot(); cs.Runs[3].Straggler {
		t.Errorf("straggler flagged with fewer than %d completed runs", stragglerMinDone)
	}
}

// TestSweepStatusNilSafe pins the nil contract: every recording method and
// reader is a no-op on a nil status.
func TestSweepStatusNilSafe(t *testing.T) {
	var st *Status
	st.begin(nil)
	st.start(0)
	st.done(0, &RunStats{}, Resources{})
	st.fail(0)
	st.setJournal(0, journal.Summary{})
	if cs := st.Snapshot(); cs.Total != 0 {
		t.Errorf("nil snapshot = %+v", cs)
	}
	if _, runs := st.JournalSummary(); runs != 0 {
		t.Errorf("nil journal summary reported %d runs", runs)
	}
}
