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
// Samples are 24-byte pointer-free structs staged in the timeline's one
// ring — an obs.Lane, the single-writer staging buffer published as
// immutable blocks that SpanRing and the journal also use — so the hot
// path costs a changed-value check and one struct store, never a map or
// an encoder. Readers (Samples, WriteJSONL) see only flushed blocks: a
// mid-run reader observes a consistent prefix while the writer keeps
// recording.
//
// # Determinism
//
// A timeline is sampled on a fixed cadence grid (multiples of
// DefaultCadence, timed by the DES clock), records only when a series'
// value changed, and reads no wall clock and no randomness — so for a
// fixed seed the serialized timeline is bit-for-bit reproducible and an
// attached timeline never perturbs the simulation's RNG streams.
//
// All methods are safe on a nil *Timeline and *Sampler, matching the
// project-wide observability contract: a nil timeline is a no-op costing
// the hot paths nothing.
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

// Timeline owns one sample ring and the column (series name) table.
// Construct with New; a nil *Timeline is a valid no-op.
//
// The ring is SINGLE-WRITER, like every obs.Lane: exactly one goroutine
// may call Record / Flush at a time. Column and the readers (Len,
// Samples, WriteJSONL) may run concurrently with the writer.
type Timeline struct {
	ring  obs.Lane[Sample]
	mu    sync.Mutex
	cols  []string
	colID map[string]int32
}

// New returns an empty timeline; its sampler ticks every DefaultCadence
// sim-hours.
func New() *Timeline { return &Timeline{} }

// Column interns a series name and returns its ordinal, stable for the
// timeline's lifetime. Returns 0 on a nil timeline (Record discards the
// sample anyway).
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

// Record stages one sample of column col at sim time at. No-op on a nil
// timeline.
//
//hot:noalloc
func (t *Timeline) Record(col int32, at, v float64) {
	if t == nil {
		return
	}
	if t.ring.Record(Sample{T: at, V: v, Col: col}) {
		t.ring.Flush()
	}
}

// Flush publishes the staged samples to readers. Only the writer may call
// it.
func (t *Timeline) Flush() {
	if t == nil {
		return
	}
	t.ring.Flush()
}

// Len reports the number of flushed (reader-visible) samples.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return t.ring.Len()
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

// Samples returns every flushed sample in recording order — the canonical
// serialization order, deterministic for a deterministic recording. Safe
// to call while the writer keeps recording: it sees a consistent prefix.
func (t *Timeline) Samples() []Sample {
	if t == nil {
		return nil
	}
	return t.ring.Values()
}

// WriteJSONL writes every flushed sample as one JSON object per line —
// {"t":…,"m":"series","v":…} — in recording order,
// deterministic for a fixed simulation seed. The encoder is hand-rolled
// append work tuned for the stream's shape: a cadence tick emits several
// samples sharing one timestamp (rendered once and reused), and each
// series' `,"m":"…","v":` fragment is pre-rendered per column.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeJSONL(w, t.columns(), t.ring.Blocks())
}

// writeChunk is the output size at which writeJSONL hands its encoded
// lines to w.
const writeChunk = 1 << 16

// writeJSONL encodes the samples of blocks, in order, as JSON lines,
// naming columns from cols, and writes them to w in chunks of about
// writeChunk bytes. It reads the ring's published blocks in place, so
// serializing copies no sample.
func writeJSONL(w io.Writer, cols []string, blocks [][]Sample) error {
	enc := encoder{cols: cols}
	buf := make([]byte, 0, writeChunk)
	for _, blk := range blocks {
		for _, s := range blk {
			buf = enc.appendSample(buf, s)
			if len(buf) >= writeChunk-128 {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
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
