package dcnr_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dcnr"
)

// TestSimulateIntraDCInstrumented drives the whole intra-DC pipeline with a
// registry and tracer attached through the facade and checks that telemetry
// from every instrumented layer arrived: DES kernel, remediation engine,
// and SEV query engine.
func TestSimulateIntraDCInstrumented(t *testing.T) {
	reg := dcnr.NewMetricsRegistry()
	tr := dcnr.NewTracer()
	res, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{
		Seed: 11, FromYear: 2016, ToYear: 2017, Observe: dcnr.Observe{Metrics: reg, Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["des_events_fired_total"] == 0 {
		t.Error("DES kernel recorded no events")
	}
	if snap.Counters["remediation_submitted_total"] == 0 {
		t.Error("remediation engine recorded no submissions")
	}
	if got := snap.Counters["remediation_repaired_total"] + snap.Counters["remediation_escalated_total"]; got != snap.Counters["remediation_submitted_total"] {
		t.Errorf("remediation outcomes %d != submissions %d", got, snap.Counters["remediation_submitted_total"])
	}

	// Analysis queries hit the instrumented store. A posting-list query
	// rides the indexed path; a window-only query and a predicate-free
	// query scan.
	indexedBefore := snap.Counters["sev_queries_indexed_total"]
	scanBefore := snap.Counters["sev_queries_scan_total"]
	res.Store.Query().Year(2017).Count()
	res.Store.Query().Since(0).Count()
	res.Store.Query().Count()
	snap = reg.Snapshot()
	if got := snap.Counters["sev_queries_indexed_total"] - indexedBefore; got != 1 {
		t.Errorf("indexed queries counted = %d, want 1", got)
	}
	if got := snap.Counters["sev_queries_scan_total"] - scanBefore; got != 2 {
		t.Errorf("scan queries counted = %d, want 2", got)
	}

	// The trace carries both clocks: wall-track DES spans and sim-track
	// remediation spans.
	pids := map[int]bool{}
	for _, e := range tr.Events() {
		pids[e.PID] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("trace missing a clock track (pids seen: %v)", pids)
	}
	// Every sink is complete when the run returns: each automated repair
	// left exactly one published span, none of them still staged in the
	// engine's rings.
	spans := 0
	for _, e := range tr.Events() {
		if e.Cat == "remediation" && e.Phase == "X" {
			spans++
		}
	}
	if repaired := snap.Counters["remediation_repaired_total"]; int64(spans) != repaired || repaired == 0 {
		t.Errorf("remediation repair spans = %d, remediation_repaired_total = %d", spans, repaired)
	}

	// The exported file is one valid JSON object in trace-event format.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var obj struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(obj.TraceEvents) < 3 {
		t.Errorf("trace has only %d events", len(obj.TraceEvents))
	}

	// Prometheus exposition includes counters from the run.
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "des_events_fired_total") {
		t.Error("Prometheus exposition missing DES counter")
	}
}

// TestSimulateIntraDCTimelineDeterministic pins the timeline's contract at
// the facade: sampling rides the DES clock, so two identical runs produce
// byte-identical JSONL — no wall-clock jitter in what gets captured.
func TestSimulateIntraDCTimelineDeterministic(t *testing.T) {
	render := func() string {
		tl := dcnr.NewTimeline()
		cfg := dcnr.IntraConfig{Seed: 11, FromYear: 2016, ToYear: 2016}
		cfg.Observe.Timeline = tl
		if _, err := dcnr.SimulateIntraDC(cfg); err != nil {
			t.Fatal(err)
		}
		if tl.Len() == 0 {
			t.Fatal("timeline captured no samples")
		}
		var buf bytes.Buffer
		if err := tl.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Error("timeline JSONL differs between identical runs")
	}
	// Every line is a well-formed sample; the kernel's event counter is in.
	sawEvents := false
	for _, line := range strings.Split(strings.TrimSuffix(first, "\n"), "\n") {
		var s struct {
			T float64 `json:"t"`
			M string  `json:"m"`
			V float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("timeline line %q is not valid JSON: %v", line, err)
		}
		if s.M == "des_events_fired_total" {
			sawEvents = true
		}
	}
	if !sawEvents {
		t.Error("timeline has no des_events_fired_total series")
	}
}

// TestSimulateBackboneInstrumented checks the backbone simulation feeds the
// same registry through BackboneConfig.
func TestSimulateBackboneInstrumented(t *testing.T) {
	reg := dcnr.NewMetricsRegistry()
	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = 5
	cfg.Months = 2
	cfg.Metrics = reg
	if _, err := dcnr.SimulateBackbone(cfg); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counters["des_events_fired_total"] == 0 {
		t.Error("backbone DES kernel recorded no events")
	}
}
