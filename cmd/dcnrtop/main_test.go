package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcnr"
)

func TestSparkline(t *testing.T) {
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}, 3); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q, want lowest blocks", got)
	}
	// Windows to the last width values and pads short series.
	if got := sparkline([]float64{9, 9, 0, 8}, 2); got != "▁█" {
		t.Errorf("windowed sparkline = %q", got)
	}
	if got := sparkline([]float64{1}, 3); got != "▁  " {
		t.Errorf("padded sparkline = %q", got)
	}
	if got := sparkline(nil, 4); got != "    " {
		t.Errorf("empty sparkline = %q", got)
	}
}

func TestProgressBar(t *testing.T) {
	if got := progressBar(2, 4, 8); got != "[████░░░░]  50%" {
		t.Errorf("half bar = %q", got)
	}
	if got := progressBar(4, 4, 4); got != "[████] 100%" {
		t.Errorf("full bar = %q", got)
	}
	if got := progressBar(0, 0, 4); got != "[░░░░]   0%" {
		t.Errorf("empty-grid bar = %q", got)
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{950, "950"}, {8200, "8200"}, {82000, "82.0k"},
		{71_500_000, "71.5M"}, {2.5e9, "2.5G"}, {3.25, "3.2"},
	}
	for _, c := range cases {
		if got := fmtCount(c.v); got != c.want {
			t.Errorf("fmtCount(%g) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := fmtSeconds(3723); got != "1h02m03s" {
		t.Errorf("fmtSeconds(3723) = %q", got)
	}
	if got := fmtSeconds(63); got != "1m03s" {
		t.Errorf("fmtSeconds(63) = %q", got)
	}
	if got := fmtSeconds(9); got != "9s" {
		t.Errorf("fmtSeconds(9) = %q", got)
	}
}

func TestScenarioRows(t *testing.T) {
	runs := []dcnr.SweepRunStatus{
		{Scenario: "baseline", State: "done", EventsPerSec: 100, SimHoursPerSec: 10},
		{Scenario: "baseline", State: "done", EventsPerSec: 300, SimHoursPerSec: 30},
		{Scenario: "baseline", State: "running", Straggler: true},
		{Scenario: "no-remediation", State: "failed"},
	}
	rows := scenarioRows(runs)
	if len(rows) != 2 {
		t.Fatalf("got %d scenario rows, want 2", len(rows))
	}
	b := rows[0]
	if b.name != "baseline" || b.done != 2 || b.running != 1 || b.total != 3 {
		t.Errorf("baseline row = %+v", b)
	}
	if b.evPerSec != 200 || b.simHPerSec != 20 {
		t.Errorf("baseline means = (%g ev/s, %g sim-h/s), want (200, 20)", b.evPerSec, b.simHPerSec)
	}
	if b.stragglers != 1 {
		t.Errorf("baseline stragglers = %d, want 1", b.stragglers)
	}
	if n := rows[1]; n.name != "no-remediation" || n.failed != 1 {
		t.Errorf("no-remediation row = %+v", n)
	}
}

func TestRenderFrame(t *testing.T) {
	cs := dcnr.SweepCampaignStatus{
		Total: 4, Completed: 2, Running: 1,
		ElapsedSeconds: 12,
		Events:         150000, SimHours: 17520,
		Runs: []dcnr.SweepRunStatus{
			{Scenario: "baseline", State: "done", StartSeconds: 0, ElapsedSeconds: 4,
				Faults: 10, Incidents: 3, EventsPerSec: 5000, SimHoursPerSec: 800},
			{Scenario: "baseline", State: "done", StartSeconds: 4, ElapsedSeconds: 5,
				Faults: 20, Incidents: 4, EventsPerSec: 7000, SimHoursPerSec: 1000},
			{Scenario: "baseline", State: "running", StartSeconds: 9, ElapsedSeconds: 3},
			{Scenario: "baseline", State: "pending"},
		},
	}
	frame := renderFrame(cs, 80)
	for _, want := range []string{
		"2/4 done", "1 running", "elapsed 12s",
		"baseline", "events/s", "6000",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// Each series row runs from the campaign's start to now: the
	// cumulative ones rise from the lowest block to the highest and end at
	// their current value; a series that never moved is flat.
	for _, row := range []struct {
		name, first, last, value string
	}{
		{"done", "▁", "█", "2"},
		{"failed", "▁", "▁", "0"},
		{"faults", "▁", "█", "30"},
		{"incidents", "▁", "█", "7"},
		{"running", "▁", "▁", "1"},
	} {
		spark, value, ok := seriesRow(frame, row.name)
		if !ok {
			t.Errorf("no %s row in frame:\n%s", row.name, frame)
			continue
		}
		if len(spark) != 80-len("incidents")-16 || string(spark[0]) != row.first ||
			string(spark[len(spark)-1]) != row.last || value != row.value {
			t.Errorf("%s row = %s %s, want %d points from %s to %s ending at %s",
				row.name, string(spark), value, 80-len("incidents")-16, row.first, row.last, row.value)
		}
	}
}

// TestCampaignSeries pins the derivation at three instants (0, 5 and 10 s
// into a 10 s campaign): a run is running from its start until its end,
// and a done or failed run counts as such from its end on.
func TestCampaignSeries(t *testing.T) {
	cs := dcnr.SweepCampaignStatus{
		ElapsedSeconds: 10,
		Runs: []dcnr.SweepRunStatus{
			{State: "done", StartSeconds: 1, ElapsedSeconds: 3, Faults: 5, Incidents: 2},
			{State: "failed", StartSeconds: 2, ElapsedSeconds: 6},
			{State: "running", StartSeconds: 6, ElapsedSeconds: 4},
			{State: "pending"},
			{State: "done", StartSeconds: 0, ElapsedSeconds: 10, Faults: 1, Incidents: 1},
		},
	}
	want := [numSeries][]float64{
		seriesDone:      {0, 1, 2},
		seriesFailed:    {0, 0, 1},
		seriesFaults:    {0, 5, 6},
		seriesIncidents: {0, 2, 3},
		seriesRunning:   {1, 2, 1},
	}
	if got := campaignSeries(cs, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("campaignSeries(n=3) = %v, want %v", got, want)
	}
	// One point is the snapshot's own instant.
	if got := campaignSeries(cs, 1); !reflect.DeepEqual(got, [numSeries][]float64{{2}, {1}, {6}, {3}, {1}}) {
		t.Errorf("campaignSeries(n=1) = %v", got)
	}
	// A negative elapsed time reads as zero: every instant is the start.
	cs.ElapsedSeconds = -5
	if got := campaignSeries(cs, 2); !reflect.DeepEqual(got, [numSeries][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {1, 1}}) {
		t.Errorf("campaignSeries(elapsed -5) = %v", got)
	}
}

// TestWatchAgainstStatusServer drives the dashboard end to end against a
// real sweep status handler, as dcsweep serves it: a run finished before
// the dashboard attached is drawn in its first frame, the campaign
// completes, and watch exits on its own once every run is done.
func TestWatchAgainstStatusServer(t *testing.T) {
	status := dcnr.NewSweepStatus()
	srv := httptest.NewServer(status.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sweepDone := make(chan error, 1)
	go func() {
		_, err := dcnr.Sweep(dcnr.SweepConfig{
			Seeds:     []uint64{1, 2},
			Workers:   1,
			Scenarios: []dcnr.SweepScenario{{Name: "baseline", FromYear: 2014, ToYear: 2014}},
			Status:    status,
		})
		sweepDone <- err
	}()
	deadline := time.Now().Add(60 * time.Second)
	for status.Snapshot().Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no run finished")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	var buf syncBuffer
	go func() {
		done <- watch(ctx, &buf, srv.URL, 10*time.Millisecond, 60, 0)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watch did not exit after the campaign finished")
	}
	if err := <-sweepDone; err != nil {
		t.Fatalf("sweep: %v", err)
	}
	out := buf.String()
	// The first frame's done row rises to the run that had finished.
	frames := strings.Split(out, ansiClearHome)
	if len(frames) < 2 {
		t.Fatalf("no frame rendered:\n%s", out)
	}
	if spark, value, ok := seriesRow(frames[1], "done"); !ok || value == "0" || !strings.ContainsRune(string(spark), '█') {
		t.Errorf("first frame does not draw the run finished before it attached:\n%s", frames[1])
	}
	for _, want := range []string{"2/2 done", "baseline", "100%", "incidents"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard output missing %q", want)
		}
	}
}

// seriesRow finds the named series row of a frame and returns its
// sparkline and current value.
func seriesRow(frame, name string) (spark []rune, value string, ok bool) {
	for _, l := range strings.Split(frame, "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == name {
			return []rune(f[1]), f[2], true
		}
	}
	return nil, "", false
}

// TestWatchFramesLimit pins -frames: the loop exits after N frames even
// while the campaign is still pending.
func TestWatchFramesLimit(t *testing.T) {
	status := dcnr.NewSweepStatus()
	srv := httptest.NewServer(status.Handler())
	defer srv.Close()
	var buf syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := watch(ctx, &buf, srv.URL, time.Millisecond, 60, 2); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if got := strings.Count(buf.String(), "dcnr campaign"); got != 2 {
		t.Errorf("rendered %d frames, want 2", got)
	}
}

// TestWatchServerGone pins the end-of-campaign shape: once at least one
// frame has rendered, the status server disappearing (dcsweep tears it
// down when the last run finishes) ends the watch cleanly instead of
// erroring.
func TestWatchServerGone(t *testing.T) {
	status := dcnr.NewSweepStatus()
	srv := httptest.NewServer(status.Handler())
	var buf syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		done <- watch(ctx, &buf, srv.URL, time.Millisecond, 60, 0)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "dcnr campaign") {
		if time.Now().After(deadline) {
			t.Fatal("no frame rendered before server shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("watch after server shutdown: %v", err)
	}
	if !strings.Contains(buf.String(), "gone") {
		t.Error("missing server-gone notice in dashboard output")
	}

	// With no frame ever rendered, the same failure is a real error.
	if err := watch(ctx, &buf, srv.URL, time.Millisecond, 60, 0); err == nil {
		t.Error("watch against a dead server returned nil on the first poll")
	}
}

// TestFetchCampaignErrors pins the failure modes: non-200 and bad JSON.
func TestFetchCampaignErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/bad":
			http.Error(w, "nope", http.StatusNotFound)
		default:
			_, _ = w.Write([]byte("not json"))
		}
	}))
	defer srv.Close()
	client := srv.Client()
	if _, err := fetchCampaign(context.Background(), client, srv.URL+"/bad"); err == nil {
		t.Error("no error for 404 response")
	}
	if _, err := fetchCampaign(context.Background(), client, srv.URL+"/garbled"); err == nil {
		t.Error("no error for malformed JSON")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: watch writes from its own
// goroutine while assertions read after it exits.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
