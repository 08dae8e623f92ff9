package main

import (
	"bytes"
	"context"
	"fmt"
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
			{Scenario: "baseline", State: "done", EventsPerSec: 5000, SimHoursPerSec: 800},
			{Scenario: "baseline", State: "done", EventsPerSec: 7000, SimHoursPerSec: 1000},
			{Scenario: "baseline", State: "running"},
			{Scenario: "baseline", State: "pending"},
		},
	}
	hist := map[string][]float64{"sweep_runs_total": {0, 1, 2}}
	frame := renderFrame(cs, hist, 80)
	for _, want := range []string{
		"2/4 done", "1 running", "elapsed 12s",
		"baseline", "events/s", "6000",
		"sweep_runs_total", "▁▄█",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

func TestHistoriesIngestAndCap(t *testing.T) {
	h := newHistories(4)
	h.ingest(strings.NewReader(`{"t":1,"m":"b","v":9}` + "\nnot json\n" +
		`{"t":1,"m":"a","v":0}` + "\n" + `{"t":2,"m":"a","v":1}` + "\n"))
	if h.last != 2 {
		t.Errorf("newest t = %g, want 2", h.last)
	}
	// The next body repeats t=2, as a from=2 poll does: it is not counted
	// again, and the cap keeps only the newest four points.
	var next strings.Builder
	for i := 2; i <= 5; i++ {
		fmt.Fprintf(&next, `{"t":%d,"m":"a","v":%d}`+"\n", i, i)
	}
	h.ingest(strings.NewReader(next.String()))
	if got, want := h.data["a"], []float64{1, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("capped history = %v, want %v", got, want)
	}
	if got := h.data["b"]; !reflect.DeepEqual(got, []float64{9}) {
		t.Errorf("history b = %v, want [9]", got)
	}
	if names := metricNames(h.data); !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("metric names = %v", names)
	}

	// A body out of time order leaves last at its largest t, so the same
	// body ingested again adds nothing.
	h = newHistories(4)
	back := `{"t":5,"m":"a","v":1}` + "\n" + `{"t":3,"m":"a","v":2}` + "\n"
	h.ingest(strings.NewReader(back))
	h.ingest(strings.NewReader(back))
	if got, want := h.data["a"], []float64{1, 2}; !reflect.DeepEqual(got, want) || h.last != 5 {
		t.Errorf("out-of-order history = %v, last %g; want %v, last 5", got, h.last, want)
	}

	// A line over the 1 MiB cap is skipped and reading goes on past it,
	// so the sample after it lands and a repeat of the body adds nothing.
	h = newHistories(4)
	long := `{"t":1,"m":"a","v":1}` + "\n" +
		`{"t":2,"m":"a","v":2,"pad":"` + strings.Repeat("x", 2<<20) + `"}` + "\n" +
		`{"t":3,"m":"a","v":3}` + "\n"
	h.ingest(strings.NewReader(long))
	h.ingest(strings.NewReader(long))
	if got, want := h.data["a"], []float64{1, 3}; !reflect.DeepEqual(got, want) || h.last != 3 {
		t.Errorf("history over a long line = %v, last %g; want %v, last 3", got, h.last, want)
	}
}

// TestHistoriesPoll polls a live timeline: the first poll draws every
// sample flushed before it, each later poll asks from the newest t held
// and counts no sample twice, and a failing source leaves the history as
// it was.
func TestHistoriesPoll(t *testing.T) {
	tl := dcnr.NewTimeline()
	reg := dcnr.NewMetricsRegistry()
	smp := dcnr.NewTimelineSampler(tl, "wall", reg, []string{"a_total", "b_total"}, nil)
	var (
		mu      sync.Mutex
		queries []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		tl.ServeHistory(w, r)
	}))
	defer srv.Close()
	tick := func(at float64, a, b int64) {
		reg.Counter("a_total").Add(a)
		reg.Counter("b_total").Add(b)
		smp.Sample(at)
		smp.Flush()
	}
	ctx := context.Background()
	h := newHistories(maxPoints)

	tick(1, 1, 5)
	tick(2, 1, 0)
	h.poll(ctx, srv.Client(), srv.URL)
	tick(3, 1, 1)
	h.poll(ctx, srv.Client(), srv.URL)
	h.poll(ctx, srv.Client(), srv.URL)

	want := map[string][]float64{"a_total": {1, 2, 3}, "b_total": {5, 6}}
	if !reflect.DeepEqual(h.data, want) {
		t.Errorf("history = %v, want %v", h.data, want)
	}
	mu.Lock()
	if got := []string{"from=-Inf", "from=2", "from=3"}; !reflect.DeepEqual(queries, got) {
		t.Errorf("poll queries = %q, want %q", queries, got)
	}
	mu.Unlock()

	srv.Close()
	h.poll(ctx, srv.Client(), srv.URL)
	if !reflect.DeepEqual(h.data, want) {
		t.Errorf("history after a failed poll = %v, want %v", h.data, want)
	}
}

// TestWatchAgainstStatusServer drives the dashboard end to end against a
// real sweep status handler with the campaign timeline mounted beside it,
// as dcsweep serves them: samples flushed before the dashboard attached
// are drawn in its first frame, a tiny campaign completes, and watch exits
// on its own once every run is done.
func TestWatchAgainstStatusServer(t *testing.T) {
	status := dcnr.NewSweepStatus()
	tl := dcnr.NewTimeline()
	reg := dcnr.NewMetricsRegistry()
	reg.Counter("sweep_runs_total").Inc()
	smp := dcnr.NewTimelineSampler(tl, "wall", reg, []string{"sweep_runs_total"}, nil)
	smp.Sample(1)
	smp.Flush()
	mux := http.NewServeMux()
	mux.Handle("/", status.Handler())
	mux.HandleFunc("/metrics/history", tl.ServeHistory)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	var buf syncBuffer
	go func() {
		done <- watch(ctx, &buf, srv.URL, 10*time.Millisecond, 60, 0)
	}()
	sweepDone := make(chan error, 1)
	go func() {
		_, err := dcnr.Sweep(dcnr.SweepConfig{
			Seeds:     []uint64{1},
			Scenarios: []dcnr.SweepScenario{{Name: "baseline", FromYear: 2014, ToYear: 2014}},
			Status:    status,
		})
		sweepDone <- err
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
	frames := strings.Split(out, ansiClearHome)
	if len(frames) < 2 || !strings.Contains(frames[1], "sweep_runs_total") {
		t.Errorf("first frame lacks the history flushed before it:\n%s", out)
	}
	for _, want := range []string{"1/1 done", "baseline", "100%", "sweep_runs_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard output missing %q", want)
		}
	}
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
