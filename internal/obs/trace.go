package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The trace recorder emits Chrome trace-event JSON: the array-of-events
// format that chrome://tracing and Perfetto load directly. Two process
// lanes separate the two clocks the reproduction runs on:
//
//   - WallPID ("wall clock"): spans measured with time.Now — DES event
//     handling cost, per-analysis task time in the parallel runner.
//   - SimPID ("simulation time"): spans positioned on the virtual clock —
//     remediation submit→outcome intervals, fault lifecycles. One displayed
//     second on this track is one simulated hour (see SimMicros).
//
// All methods are safe on a nil *Tracer (no-ops) and safe for concurrent
// use; recording is an append under a mutex, cheap enough for the DES hot
// loop at study scale.
const (
	// WallPID is the trace process id of the wall-clock track.
	WallPID = 1
	// SimPID is the trace process id of the simulation-time track.
	SimPID = 2
)

// SimMicros converts simulation hours to trace microseconds on the SimPID
// track: 1 simulated hour renders as 1 second of trace time, which keeps a
// seven-year run (~61k hours) inside a comfortably navigable timeline.
func SimMicros(hours float64) float64 { return hours * 1e6 }

// Event is one Chrome trace event. Phase follows the trace-event spec:
// "X" complete (TS+Dur), "i" instant, "C" counter, "M" metadata.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// Tracer records trace events. Construct with NewTracer; a nil *Tracer is a
// valid recorder that drops everything, so call sites gate hot-path work
// with Enabled() and otherwise call through unconditionally.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
	// rings are the batched hot-loop recorders created by Ring; their
	// flushed records join events at read time (Events, Len, WriteJSON).
	rings []*SpanRing
}

// NewTracer returns a Tracer whose wall-clock origin (trace ts 0) is now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Fork returns a new, empty tracer sharing t's wall-clock origin, so
// events recorded on both land on one consistent timeline when written
// into the same file with a TraceJSONWriter. The fork lets a caller
// serialize one phase's (large) trace while a later phase records on the
// fork — the two never contend. A nil tracer forks to nil.
func (t *Tracer) Fork() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{start: t.start}
}

// Enabled reports whether events are being recorded. It is the hot-path
// guard: skip building args maps when false.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current wall-clock trace timestamp in microseconds since
// the tracer's origin.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return float64(time.Since(t.start)) / float64(time.Microsecond)
}

// Emit records a raw event. Zero PID defaults to WallPID; zero TID to 1.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.PID == 0 {
		e.PID = WallPID
	}
	if e.TID == 0 {
		e.TID = 1
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Span is an in-flight wall-clock interval opened by Begin. End records it
// as a complete ("X") event. The zero Span (and any Span from a nil
// Tracer) is a no-op.
type Span struct {
	t     *Tracer
	tid   int
	cat   string
	name  string
	ts    float64
	begin time.Time
	args  map[string]any
}

// Begin opens a wall-clock span on lane 1 of the wall track.
func (t *Tracer) Begin(cat, name string) Span { return t.BeginOn(1, cat, name) }

// BeginOn opens a wall-clock span on the given lane (trace tid) of the
// wall track — the parallel runner uses one lane per worker.
func (t *Tracer) BeginOn(tid int, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, tid: tid, cat: cat, name: name, ts: t.Now(), begin: time.Now()}
}

// SetArg attaches a key/value pair shown in the trace viewer's detail pane.
func (s Span) SetArg(key string, value any) Span {
	if s.t == nil {
		return s
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
	return s
}

// End records the span. Duration is measured with the monotonic clock.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{
		Name:  s.name,
		Cat:   s.cat,
		Phase: "X",
		TS:    s.ts,
		Dur:   float64(time.Since(s.begin)) / float64(time.Microsecond),
		PID:   WallPID,
		TID:   s.tid,
		Args:  s.args,
	})
}

// Instant records a zero-duration marker on the wall track.
func (t *Tracer) Instant(cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	t.Emit(Event{Name: name, Cat: cat, Phase: "i", TS: t.Now(), PID: WallPID, TID: 1, Args: args})
}

// CounterSample records a counter ("C") sample on the wall track; the
// viewer renders consecutive samples of one name as a filled area chart.
func (t *Tracer) CounterSample(name string, value float64) {
	if t == nil {
		return
	}
	t.Emit(Event{Name: name, Phase: "C", TS: t.Now(), PID: WallPID, TID: 1,
		Args: map[string]any{"value": value}})
}

// SimInstant records a zero-duration marker on the simulation-time track.
func (t *Tracer) SimInstant(tid int, cat, name string, atHours float64, args map[string]any) {
	if t == nil {
		return
	}
	t.Emit(Event{Name: name, Cat: cat, Phase: "i", TS: SimMicros(atHours), PID: SimPID, TID: tid, Args: args})
}

// Len returns the number of recorded events, including every ring's
// flushed records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.events)
	rings := t.rings
	t.mu.Unlock()
	for _, r := range rings {
		n += r.lane.Len()
	}
	return n
}

// Events returns a copy of the recorded events: directly-emitted events in
// emission order, followed by each ring's flushed records (materialized
// with their args maps) in ring-creation order. Trace timestamps, not file
// order, position events on the timeline.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	rings := t.rings
	t.mu.Unlock()
	for _, r := range rings {
		out = append(out, r.materialize()...)
	}
	return out
}

// WriteJSON writes the trace in Chrome trace-event JSON object format,
// prefixed with metadata events that name the wall-clock and
// simulation-time tracks in the viewer.
//
// Directly-emitted events go through encoding/json; ring records use their
// hand-rolled encoder and a batched buffer, so a multi-hundred-thousand
// span trace streams out in tens of milliseconds instead of seconds. The
// two sections may interleave arbitrarily on disk — the viewer orders by
// timestamp, not file position.
func (t *Tracer) WriteJSON(w io.Writer) error {
	tw := NewTraceJSONWriter(w)
	if err := tw.Add(t); err != nil {
		return err
	}
	return tw.Close()
}

// TraceJSONWriter streams one Chrome trace-event file from any number of
// tracers: NewTraceJSONWriter writes the header, each Add appends one
// tracer's events, Close writes the trailer. Tracers that should share a
// timeline must share a wall-clock origin (Tracer.Fork).
//
// The point of the split is pipelining: a caller can Add an early phase's
// bulky trace — serialization plus disk write — while a later phase is
// still simulating on a fork, then Add the fork and Close. Methods must
// not be called concurrently with each other; an Add may run concurrently
// with recording on *other* tracers only.
type TraceJSONWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewTraceJSONWriter starts a trace file on w: header plus the metadata
// events naming the wall-clock and simulation-time tracks.
func NewTraceJSONWriter(w io.Writer) *TraceJSONWriter {
	meta := []Event{
		{Name: "process_name", Phase: "M", PID: WallPID, TID: 1,
			Args: map[string]any{"name": "wall clock"}},
		{Name: "process_name", Phase: "M", PID: SimPID, TID: 1,
			Args: map[string]any{"name": "simulation time (1 s = 1 simulated hour)"}},
	}
	tw := &TraceJSONWriter{w: w, buf: make([]byte, 0, 1<<20)}
	tw.buf = append(tw.buf, `{"traceEvents":[`...)
	for i, e := range meta {
		if i > 0 {
			tw.buf = append(tw.buf, ',')
		}
		data, err := json.Marshal(e)
		if err != nil {
			tw.err = err
			return tw
		}
		tw.buf = append(tw.buf, data...)
	}
	return tw
}

func (tw *TraceJSONWriter) flush(force bool) error {
	if !force && len(tw.buf) < 1<<19 {
		return nil
	}
	if _, err := tw.w.Write(tw.buf); err != nil {
		tw.err = err
		return err
	}
	tw.buf = tw.buf[:0]
	return nil
}

// Add appends t's events — direct events first, then every ring's flushed
// records. A nil tracer adds nothing. Flush rings before calling: records
// still staged in a ring's buffer are not visible here.
func (tw *TraceJSONWriter) Add(t *Tracer) error {
	if tw.err != nil {
		return tw.err
	}
	var direct []Event
	var rings []*SpanRing
	if t != nil {
		t.mu.Lock()
		direct = append([]Event(nil), t.events...)
		rings = t.rings
		t.mu.Unlock()
	}
	for _, e := range direct {
		data, err := json.Marshal(e)
		if err != nil {
			tw.err = err
			return err
		}
		tw.buf = append(tw.buf, ',')
		tw.buf = append(tw.buf, data...)
		if err := tw.flush(false); err != nil {
			return err
		}
	}
	for _, r := range rings {
		for _, blk := range r.lane.Blocks() {
			tw.buf = r.appendJSONRecs(tw.buf, blk)
			if err := tw.flush(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close writes the trailer and flushes. It does not close the underlying
// writer.
func (tw *TraceJSONWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	tw.buf = append(tw.buf, `],"displayTimeUnit":"ms"}`...)
	tw.buf = append(tw.buf, '\n')
	return tw.flush(true)
}
