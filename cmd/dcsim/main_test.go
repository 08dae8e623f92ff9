package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcnr"
)

func TestRunWritesDatasets(t *testing.T) {
	dir := t.TempDir()
	if err := run(options{seed: 3, scale: 1, dir: dir}); err != nil {
		t.Fatal(err)
	}
	// The SEV dataset loads back and covers the study period.
	f, err := os.Open(filepath.Join(dir, "sevs.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := dcnr.NewSEVStore()
	if err := store.ReadJSON(f); err != nil {
		t.Fatal(err)
	}
	if store.Len() < 300 {
		t.Errorf("SEV dataset has only %d reports", store.Len())
	}
	// The ticket archive parses notice by notice.
	data, err := os.ReadFile(filepath.Join(dir, "tickets.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty ticket archive")
	}
}

func TestRunBadDirectory(t *testing.T) {
	if err := run(options{seed: 1, scale: 1, dir: "/dev/null/not-a-dir"}); err == nil {
		t.Error("invalid output directory accepted")
	}
}

func TestRunRejectsBadLogFlags(t *testing.T) {
	dir := t.TempDir()
	if err := run(options{seed: 1, scale: 1, dir: dir, logLevel: "loud"}); err == nil {
		t.Error("invalid log level accepted")
	}
	if err := run(options{seed: 1, scale: 1, dir: dir, logLevel: "info", logFormat: "yaml"}); err == nil {
		t.Error("invalid log format accepted")
	}
}

func TestRunWritesMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	if err := run(options{seed: 3, scale: 1, dir: dir, metricsOut: metricsPath, traceOut: tracePath}); err != nil {
		t.Fatal(err)
	}

	// The metrics snapshot is valid JSON and carries the simulation's
	// counters from both the intra-DC and backbone runs.
	var snap struct {
		Counters   map[string]int64              `json:"counters"`
		Gauges     map[string]float64            `json:"gauges"`
		Histograms map[string]map[string]float64 `json:"-"`
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["des_events_fired_total"] == 0 {
		t.Error("no DES events recorded in metrics snapshot")
	}
	if snap.Counters["remediation_submitted_total"] == 0 {
		t.Error("no remediation submissions recorded in metrics snapshot")
	}

	// The trace file is valid Chrome trace-event JSON: a traceEvents
	// array whose entries carry phase and name fields.
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) < 100 {
		t.Fatalf("trace has only %d events", len(trace.TraceEvents))
	}
	phases := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Phase == "" {
			t.Fatalf("trace event %q missing phase", e.Name)
		}
		phases[e.Phase] = true
	}
	for _, ph := range []string{"M", "X"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events (phases seen: %v)", ph, phases)
		}
	}
}

// TestRunErrorFinishesTrace pins the error paths: a write that fails
// after the trace writer started (-health-out into a missing directory)
// still joins the writer and closes the file, so the run fails and the
// trace on disk is complete JSON, trailer included.
func TestRunErrorFinishesTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	err := run(options{
		seed: 3, scale: 1, dir: dir, traceOut: tracePath,
		healthOut: filepath.Join(dir, "missing", "health.json"),
	})
	if err == nil {
		t.Fatal("run with -health-out into a missing directory succeeded")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace left by the failed run is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace left by the failed run holds no events")
	}
}

// TestRunWritesJournal is the end-to-end causal-chain acceptance check: a
// fixed-seed -journal run must leave a JSONL stream in which every closed
// incident resolves, parent ID by parent ID, to a complete chain rooted at
// a fault_raised record, with phase decomposition to match.
func TestRunWritesJournal(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	if err := run(options{seed: 3, scale: 1, dir: dir, journalOut: journalPath}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x, err := dcnr.ReadJournal(f)
	if err != nil {
		t.Fatalf("journal stream does not load back: %v", err)
	}
	if x.Len() == 0 {
		t.Fatal("journal stream is empty")
	}
	incidents := x.Incidents()
	if len(incidents) == 0 {
		t.Fatal("journal recorded no closed incidents")
	}
	for _, closed := range incidents {
		if !x.Complete(closed.ID) {
			t.Fatalf("incident %d does not chain back to a fault_raised record: %+v",
				closed.ID, x.Chain(closed.ID))
		}
	}

	// The journal agrees with the dataset: one chain per SEV report, and
	// the summary's phase decomposition is populated.
	sf, err := os.Open(filepath.Join(dir, "sevs.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	store := dcnr.NewSEVStore()
	if err := store.ReadJSON(sf); err != nil {
		t.Fatal(err)
	}
	if len(incidents) != store.Len() {
		t.Errorf("journal has %d incident chains, dataset has %d SEVs", len(incidents), store.Len())
	}
	sum := x.Summary()
	if sum.Incomplete != 0 || sum.CompleteChains != len(incidents) {
		t.Errorf("summary reports %d complete / %d incomplete chains over %d incidents",
			sum.CompleteChains, sum.Incomplete, len(incidents))
	}
	if len(sum.Phases) == 0 {
		t.Error("summary has no per-device-type phase decomposition")
	}
	if n := dcnr.AttachJournal(store, x); n != store.Len() {
		t.Errorf("journal provenance attached to %d of %d reports", n, store.Len())
	}
}

// TestRunHealthOutAndStructuredLogs is the end-to-end alert drill: an
// elevated-fault-rate run must leave a firing transition in the -health-out
// report, and the structured logs must be JSON records carrying both
// clocks.
func TestRunHealthOutAndStructuredLogs(t *testing.T) {
	dir := t.TempDir()
	healthPath := filepath.Join(dir, "health.json")
	var logBuf bytes.Buffer
	err := run(options{
		seed: 7, scale: 1, dir: dir,
		healthOut: healthPath,
		logLevel:  "info", logFormat: "json", logW: &logBuf,
		elevateYear: 2014, elevateFactor: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(healthPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep dcnr.SLOReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("health report is not valid JSON: %v", err)
	}
	fired := false
	for _, tr := range rep.Transitions {
		if tr.To == "firing" {
			fired = true
		}
	}
	if !fired {
		t.Errorf("elevated run produced no firing transition: %+v", rep.Transitions)
	}
	if len(rep.Types) == 0 {
		t.Error("health report has no per-type statistics")
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no structured logs emitted")
	}
	sawSimClock := false
	for _, line := range lines {
		var rec struct {
			Time     string  `json:"time"`
			Msg      string  `json:"msg"`
			SimHours float64 `json:"sim_hours"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec.Time == "" {
			t.Fatalf("log line lost the wall clock: %s", line)
		}
		if rec.SimHours > 0 {
			sawSimClock = true
		}
	}
	if !sawSimClock {
		t.Error("no log line carried the simulation clock")
	}
}

// TestWriteMetricsReportsEncodeError pins that a snapshot JSON cannot
// encode (a NaN gauge) fails the write instead of leaving a bare newline
// behind a success.
func TestWriteMetricsReportsEncodeError(t *testing.T) {
	reg := dcnr.NewMetricsRegistry()
	reg.Counter("c_total").Inc()
	reg.Gauge("g").Set(math.NaN())
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetrics(path, reg); err == nil {
		t.Error("writeMetrics with a NaN gauge returned nil")
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Errorf("metrics file = %q (err %v), want empty", data, err)
	}
}
