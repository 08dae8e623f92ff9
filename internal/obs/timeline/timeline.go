// Package timeline turns the point-in-time metrics of internal/obs into
// time series: a sampler driven by the simulation clock captures registry
// deltas into pointer-free fixed-width sample records, giving every run
// the temporal structure — fault storms, remediation backlogs, burn-rate
// ramps — that a final Snapshot flattens away. The paper's reliability
// numbers were read off production dashboards as time series; this
// package is that dashboard's data source.
//
// # Memory layout
//
// Samples are 24-byte pointer-free structs staged in per-lane rings — each
// Lane is an obs.Lane, the single-writer staging buffer published as
// immutable blocks that SpanRing and the journal also use, so the hot
// path costs a changed-value check and one struct store, never a map or
// an encoder. Readers (Samples, WriteJSONL) see only flushed blocks: a
// mid-run reader observes a consistent prefix of each lane while writers
// keep recording.
//
// # Determinism
//
// Lanes are sampled on a fixed cadence grid (multiples of DefaultCadence,
// timed by the DES clock), record only when a series' value changed, and
// read no wall clock and no randomness — so for a fixed seed the
// serialized timeline is bit-for-bit reproducible and an attached
// timeline never perturbs the simulation's RNG streams.
//
// All methods are safe on a nil *Timeline, *Lane, and *Sampler, matching
// the project-wide observability contract: a nil timeline is a no-op
// costing the hot paths nothing.
package timeline

import (
	"io"
	"strconv"
	"sync"

	"dcnr/internal/obs"
)

// DefaultCadence is the sim-time sampling cadence in hours: one sample
// grid point per simulated day, matching the health engine's evaluation
// tick. Every sim-time timeline samples on it.
const DefaultCadence = 24.0

// Sample is one time-series point: 24 bytes, no pointers, so a full
// staging buffer is a single GC-free block.
type Sample struct {
	// T is the sample instant in simulation hours since epoch.
	T float64
	// V is the series' value at T — cumulative for counters, current for
	// gauges. Samples are recorded only when V changed, so consecutive
	// samples of one column always differ.
	V float64
	// Col is the series' column ordinal (Timeline.Column).
	Col int32
}

// Timeline owns the sample lanes and the column (series name) table.
// Construct with New; a nil *Timeline (and every lane obtained from it)
// is a valid no-op.
type Timeline struct {
	mu    sync.Mutex
	lanes []*Lane
	cols  []string
	colID map[string]int32
}

// New returns an empty timeline sampling every DefaultCadence sim-hours.
func New() *Timeline { return &Timeline{} }

// Cadence returns the sim-time sampling cadence in hours, DefaultCadence
// (0 on a nil timeline).
func (t *Timeline) Cadence() float64 {
	if t == nil {
		return 0
	}
	return DefaultCadence
}

// Column interns a series name and returns its ordinal, stable for the
// timeline's lifetime. Returns 0 on a nil timeline (Record on a nil lane
// discards the sample anyway).
func (t *Timeline) Column(name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.colID[name]; ok {
		return id
	}
	if t.colID == nil {
		t.colID = make(map[string]int32)
	}
	id := int32(len(t.cols))
	t.cols = append(t.cols, name)
	t.colID[name] = id
	return id
}

// Lane creates a new sample lane. Like every obs.Lane, a lane is
// SINGLE-WRITER: exactly one goroutine may call Record / Flush at a time.
// Returns nil — a valid no-op lane — on a nil timeline.
func (t *Timeline) Lane(name string) *Lane {
	if t == nil {
		return nil
	}
	l := &Lane{name: name}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// Len reports the number of flushed (reader-visible) samples.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, l := range t.laneList() {
		n += l.ring.Len()
	}
	return n
}

// laneList snapshots the lane slice.
func (t *Timeline) laneList() []*Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Lane(nil), t.lanes...)
}

// columns snapshots the column name table.
func (t *Timeline) columns() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.cols...)
}

// Samples returns every flushed sample across all lanes, merged by time —
// the canonical serialization order. Each lane records time-ascending, so
// the lanes are k-way merged with ties broken by lane creation order;
// the result is deterministic for a deterministic recording. Safe to call
// while writers keep recording: it sees a consistent prefix of each lane.
func (t *Timeline) Samples() []Sample {
	if t == nil {
		return nil
	}
	lanes := t.laneList()
	flat := make([][]Sample, 0, len(lanes))
	total := 0
	for _, l := range lanes {
		blocks := l.ring.Blocks()
		n := 0
		for _, b := range blocks {
			n += len(b)
		}
		if n == 0 {
			continue
		}
		s := make([]Sample, 0, n)
		for _, b := range blocks {
			s = append(s, b...)
		}
		flat = append(flat, s)
		total += n
	}
	if len(flat) == 1 {
		return flat[0]
	}
	out := make([]Sample, 0, total)
	idx := make([]int, len(flat))
	for len(out) < total {
		best := -1
		for li, s := range flat {
			if idx[li] >= len(s) {
				continue
			}
			if best < 0 || s[idx[li]].T < flat[best][idx[best]].T {
				best = li
			}
		}
		out = append(out, flat[best][idx[best]])
		idx[best]++
	}
	return out
}

// WriteJSONL writes every flushed sample as one JSON object per line —
// {"t":…,"m":"series","v":…} — in the canonical merged order,
// deterministic for a fixed simulation seed. The encoder is hand-rolled
// append work tuned for the stream's shape: a cadence tick emits several
// samples sharing one timestamp (rendered once and reused), and each
// series' `,"m":"…","v":` fragment is pre-rendered per column.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeJSONL(w, t.columns(), t.Samples())
}

// writeChunk is the output size at which writeJSONL hands its encoded
// lines to w.
const writeChunk = 1 << 16

// writeJSONL encodes samples as JSON lines, naming columns from cols, and
// writes them to w in chunks of about writeChunk bytes.
func writeJSONL(w io.Writer, cols []string, samples []Sample) error {
	enc := encoder{cols: cols}
	buf := make([]byte, 0, writeChunk)
	for _, s := range samples {
		buf = enc.appendSample(buf, s)
		if len(buf) >= writeChunk-128 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// encoder carries writeJSONL's per-stream caches: pre-rendered
// `,"m":"…","v":` fragments per column and the last rendered timestamp
// (samples of one cadence tick share it).
type encoder struct {
	cols    []string
	colFrag [][]byte
	lastT   float64
	tBuf    []byte
}

// frag returns the pre-rendered key fragment for column i.
func (e *encoder) frag(i int) []byte {
	for len(e.colFrag) <= i {
		e.colFrag = append(e.colFrag, nil)
	}
	if e.colFrag[i] == nil {
		name := strconv.Itoa(i)
		if i < len(e.cols) && e.cols[i] != "" {
			name = e.cols[i]
		}
		e.colFrag[i] = []byte(`,"m":"` + name + `","v":`)
	}
	return e.colFrag[i]
}

// appendSample encodes one sample as a JSON line. Series names must be
// plain JSON-safe text (no quotes, backslashes, or control characters) —
// the project's metric names all are.
func (e *encoder) appendSample(b []byte, s Sample) []byte {
	b = append(b, `{"t":`...)
	if s.T != e.lastT || e.tBuf == nil {
		e.lastT = s.T
		e.tBuf = obs.AppendFixed(e.tBuf[:0], s.T)
	}
	b = append(b, e.tBuf...)
	if s.Col >= 0 {
		b = append(b, e.frag(int(s.Col))...)
	} else {
		b = append(b, `,"m":"`...)
		b = strconv.AppendInt(b, int64(s.Col), 10)
		b = append(b, `","v":`...)
	}
	b = obs.AppendFixed(b, s.V)
	b = append(b, '}', '\n')
	return b
}

// Lane is a single-writer sample buffer feeding its timeline: an obs.Lane
// of samples whose published blocks readers see. All methods are nil-safe.
type Lane struct {
	name string
	ring obs.Lane[Sample]
}

// Record stages one sample. No-op on a nil lane.
//
//hot:noalloc
func (l *Lane) Record(col int32, t, v float64) {
	if l == nil {
		return
	}
	if l.ring.Record(Sample{T: t, V: v, Col: col}) {
		l.Flush()
	}
}

// Flush publishes the staged samples to readers. Only the writer may call
// it.
func (l *Lane) Flush() {
	if l == nil {
		return
	}
	l.ring.Flush()
}
