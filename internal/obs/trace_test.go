package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestSpanRecordsCompleteEvent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("des", "event").SetArg("sim_now", 12.5)
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Name != "event" || e.Cat != "des" || e.Phase != "X" || e.PID != WallPID || e.TID != 1 {
		t.Errorf("event = %+v", e)
	}
	if e.Args["sim_now"] != 12.5 {
		t.Errorf("args = %v", e.Args)
	}
	if e.Dur < 0 {
		t.Errorf("negative duration %v", e.Dur)
	}
}

func TestSimSpanUsesSimClock(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{Name: "port ping failure", Cat: "remediation", Phase: "X",
		TS: SimMicros(24), Dur: SimMicros(2), PID: SimPID, TID: 3,
		Args: map[string]any{"priority": 1}})
	tr.SimInstant(3, "remediation", "escalated", 30, nil)
	evs := tr.Events()
	if evs[0].PID != SimPID || evs[0].TS != SimMicros(24) || evs[0].Dur != SimMicros(2) || evs[0].TID != 3 {
		t.Errorf("sim span = %+v", evs[0])
	}
	if evs[1].Phase != "i" || evs[1].TS != SimMicros(30) {
		t.Errorf("sim instant = %+v", evs[1])
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer enabled")
	}
	sp := tr.Begin("a", "b").SetArg("k", 1)
	sp.End()
	tr.Emit(Event{Name: "x"})
	tr.Instant("a", "b", nil)
	tr.CounterSample("c", 1)
	tr.SimInstant(1, "a", "b", 0, nil)
	if tr.Len() != 0 || tr.Events() != nil || tr.Now() != 0 {
		t.Error("nil tracer recorded state")
	}
	// WriteJSON on a nil tracer still emits a valid (metadata-only) trace.
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 2 {
		t.Errorf("metadata events = %d, want 2", len(f.TraceEvents))
	}
}

func TestWriteJSONIsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.Begin("repro", "table1").End()
	tr.CounterSample("des_queue_depth", 17)
	tr.Emit(Event{Name: "repair", Cat: "remediation", Phase: "X",
		TS: SimMicros(10), Dur: SimMicros(0.5), PID: SimPID, TID: 1})
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 2 metadata + 3 recorded.
	if len(f.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(f.TraceEvents))
	}
	if f.TraceEvents[0].Phase != "M" || f.TraceEvents[1].Phase != "M" {
		t.Error("trace does not open with process_name metadata")
	}
	for _, e := range f.TraceEvents {
		if e.Phase == "" || e.Name == "" || e.PID == 0 {
			t.Errorf("malformed event %+v", e)
		}
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
}

func TestEmitDefaultsPIDandTID(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{Name: "bare", Phase: "i"})
	e := tr.Events()[0]
	if e.PID != WallPID || e.TID != 1 {
		t.Errorf("defaults not applied: %+v", e)
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := NewTracer()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.BeginOn(w+1, "load", "task").End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Errorf("events = %d, want %d", tr.Len(), workers*per)
	}
}

// TestConcurrentFlushAndRecord exercises flushing (WriteJSON/Events/Len)
// while recorders are still emitting — the repro server can serve a trace
// dump mid-simulation, so snapshots must be internally consistent and
// every flush must parse as a complete Chrome trace. Run under -race.
func TestConcurrentFlushAndRecord(t *testing.T) {
	tr := NewTracer()
	const workers, per, flushes = 4, 300, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					tr.BeginOn(w+1, "work", "flush-race").End()
				case 1:
					tr.Instant("tick", "flush-race", nil)
				default:
					tr.CounterSample("depth", float64(i))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := 0
		for i := 0; i < flushes; i++ {
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Errorf("flush %d: WriteJSON: %v", i, err)
				return
			}
			var f struct {
				TraceEvents []Event `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
				t.Errorf("flush %d: invalid trace JSON: %v", i, err)
				return
			}
			// Events only accumulate; a later flush can never see fewer.
			n := len(tr.Events())
			if n < prev {
				t.Errorf("flush %d: events shrank %d -> %d", i, prev, n)
				return
			}
			prev = n
			if tr.Len() < n {
				t.Errorf("flush %d: Len()=%d < observed %d", i, tr.Len(), n)
				return
			}
		}
	}()
	wg.Wait()
	if got := tr.Len(); got != workers*per {
		t.Errorf("final events = %d, want %d", got, workers*per)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("final WriteJSON: %v", err)
	}
}
