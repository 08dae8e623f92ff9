package obs

import (
	"strconv"
	"sync"
	"time"
)

// LaneBatch is the staging-buffer size of every Lane: one publish (one
// block allocation and one lock acquisition) per this many records.
// Readers concatenate blocks, so the size never shows in any output.
const LaneBatch = 512

// Lane is the single-writer staging ring behind every batched recorder in
// the repo — SpanRing here and the one ring each journal.Journal and
// timeline.Timeline owns. Record stores one value into a fixed staging
// array; Flush copies the staged values into a fresh immutable block and
// publishes it. Readers (Blocks, Values, Len) see only published
// blocks, so a mid-run reader observes a consistent prefix while the
// writer keeps recording, and never touches the staging array the writer
// is overwriting.
//
// Publishing appends a block instead of growing one flat slice, so it
// never re-copies earlier records (a flat append spent more memory
// bandwidth on growslice copies than the simulation spent producing the
// records).
//
// A Lane is SINGLE-WRITER: exactly one goroutine may call Record / Flush
// at a time (callers that share a lane across goroutines, like the
// remediation engine, serialize on their own mutex). Readers may run
// concurrently with the writer. The zero Lane is ready to use; T should
// be pointer-free so a staging array is one GC-free block.
type Lane[T any] struct {
	buf [LaneBatch]T // staging buffer, single-writer
	n   int

	mu      sync.Mutex
	flushed [][]T
	total   int
}

// Record stages v and reports whether the staging buffer is now full; the
// caller must then Flush before the next Record.
//
//hot:noalloc
func (l *Lane[T]) Record(v T) (full bool) {
	l.buf[l.n] = v
	l.n++
	return l.n == LaneBatch
}

// Flush publishes the staged values as one immutable block and returns
// it, or returns nil when nothing was staged. Only the writer may call it.
func (l *Lane[T]) Flush() []T {
	if l.n == 0 {
		return nil
	}
	blk := make([]T, l.n)
	copy(blk, l.buf[:l.n])
	l.mu.Lock()
	l.flushed = append(l.flushed, blk)
	l.total += l.n
	l.mu.Unlock()
	l.n = 0
	return blk
}

// Blocks returns the published blocks in publication order. The blocks
// themselves are immutable, so only the block list is copied.
func (l *Lane[T]) Blocks() [][]T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]T(nil), l.flushed...)
}

// Values returns every published value in publication order, copied into
// one slice. The copy is made outside the lane's mutex, so a long read
// never stalls the writer's Flush.
func (l *Lane[T]) Values() []T {
	blocks := l.Blocks()
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	out := make([]T, 0, n)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// Len returns the number of published values.
func (l *Lane[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SpanRing is a batched span recorder for instrumented hot loops: a Lane
// of compact, pointer-free records published to the owning Tracer's
// readers in blocks, so the hot path never builds an args map and takes a
// lock only once per LaneBatch records.
//
// A ring is SINGLE-WRITER, like every Lane: exactly one goroutine may call
// Record / RecordWall / Flush at a time. Readers (Tracer.Events,
// Tracer.WriteJSON, Tracer.Len) see only flushed records, so the writer
// must Flush before the trace is read — the DES kernel flushes on every
// Run/Step exit, the remediation engine in FlushTrace.
//
// Each record carries a name (an index into the ring's name table, or -1
// for the ring's default name), trace timestamps, and up to ringArgs
// numeric args materialized under the ring's fixed arg keys.
//
// All methods are safe on a nil *SpanRing, so call sites can hold an
// unconditional ring field that is nil when tracing is off.
type SpanRing struct {
	t        *Tracer
	pid, tid int
	cat      string
	name     string

	// names is the optional per-record name table; Record's name argument
	// indexes it. Set via SetNames before the first Record.
	names []string
	// keys are the arg keys, at most ringArgs; len(keys) args are
	// materialized per record.
	keys []string

	lane Lane[spanRec]
}

// ringArgs is the per-record numeric arg capacity.
const ringArgs = 3

// spanRec is one compact span record: 48 bytes, no pointers, so a full
// staging buffer is a single 24 KiB GC-free block.
type spanRec struct {
	name int32 // index into SpanRing.names; -1 = ring default name
	ts   float64
	dur  float64
	args [ringArgs]float64
}

// Ring creates a batched span recorder on the given track and lane. The
// keys (at most 3) name the numeric args each record carries. Returns nil
// on a nil Tracer; every SpanRing method is nil-safe.
//
// name, cat, keys, and any SetNames strings must be plain
// JSON-safe text (no quotes, backslashes, or control characters): the
// trace writer emits them without escaping.
func (t *Tracer) Ring(pid, tid int, cat, name string, keys ...string) *SpanRing {
	if t == nil {
		return nil
	}
	if len(keys) > ringArgs {
		keys = keys[:ringArgs]
	}
	r := &SpanRing{t: t, pid: pid, tid: tid, cat: cat, name: name, keys: keys}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// SetNames installs the per-record name table; Record's first argument
// indexes it. Call once, before the first Record.
func (r *SpanRing) SetNames(names ...string) *SpanRing {
	if r == nil {
		return r
	}
	r.names = names
	return r
}

// Record appends a span with explicit trace timestamps (microseconds on
// the ring's track). name indexes the SetNames table; pass -1 for the
// ring's default name. Unused args are ignored at materialization (only
// len(keys) args are emitted).
//
//hot:noalloc
func (r *SpanRing) Record(name int32, ts, dur, a0, a1, a2 float64) {
	if r == nil {
		return
	}
	if r.lane.Record(spanRec{name: name, ts: ts, dur: dur, args: [ringArgs]float64{a0, a1, a2}}) {
		r.lane.Flush()
	}
}

// RecordWall appends a wall-clock span measured by (start, wall),
// positioned relative to the tracer's origin — the hot-loop replacement
// for Begin/End that costs two plain stores instead of a map and a lock.
//
//hot:noalloc
func (r *SpanRing) RecordWall(name int32, start time.Time, wall time.Duration, a0, a1, a2 float64) {
	if r == nil {
		return
	}
	ts := float64(start.Sub(r.t.start)) / float64(time.Microsecond)
	r.Record(name, ts, float64(wall)/float64(time.Microsecond), a0, a1, a2)
}

// Flush publishes the staged records to readers. Only the writer may call
// it.
func (r *SpanRing) Flush() {
	if r != nil {
		r.lane.Flush()
	}
}

// recName resolves a record's span name.
func (r *SpanRing) recName(rec spanRec) string {
	if rec.name >= 0 && int(rec.name) < len(r.names) {
		return r.names[rec.name]
	}
	return r.name
}

// materialize converts the flushed records to regular Events (args maps
// included) — the compatibility path behind Tracer.Events.
func (r *SpanRing) materialize() []Event {
	var recs []spanRec
	for _, blk := range r.lane.Blocks() {
		recs = append(recs, blk...)
	}
	out := make([]Event, 0, len(recs))
	for _, rec := range recs {
		args := make(map[string]any, len(r.keys))
		for i, k := range r.keys {
			args[k] = rec.args[i]
		}
		out = append(out, Event{
			Name:  r.recName(rec),
			Cat:   r.cat,
			Phase: "X",
			TS:    rec.ts,
			Dur:   rec.dur,
			PID:   r.pid,
			TID:   r.tid,
			Args:  args,
		})
	}
	return out
}

// appendJSONRecs writes the given records as trace-event JSON objects,
// comma-prefixed, assuming at least one event precedes them (the caller
// always writes the track-name metadata first). The encoder is hand-rolled:
// on a 200k-span trace the generic map-based path costs more than the
// simulation itself. Callers chunk recs so the output buffer can flush
// between chunks.
func (r *SpanRing) appendJSONRecs(b []byte, recs []spanRec) []byte {
	// The name-independent middle of every record is identical; build it
	// once.
	mid := []byte(`","cat":"` + r.cat + `","ph":"X","ts":`)
	var tail []byte
	tail = append(tail, `,"pid":`...)
	tail = strconv.AppendInt(tail, int64(r.pid), 10)
	tail = append(tail, `,"tid":`...)
	tail = strconv.AppendInt(tail, int64(r.tid), 10)
	tail = append(tail, `,"args":{`...)
	for _, rec := range recs {
		b = append(b, `,{"name":"`...)
		b = append(b, r.recName(rec)...)
		b = append(b, mid...)
		b = appendTraceFloat(b, rec.ts)
		b = append(b, `,"dur":`...)
		b = appendTraceFloat(b, rec.dur)
		b = append(b, tail...)
		for i, k := range r.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, k...)
			b = append(b, `":`...)
			b = appendTraceFloat(b, rec.args[i])
		}
		b = append(b, `}}`...)
	}
	return b
}

// appendTraceFloat formats a trace number compactly: integers without a
// fraction, everything else with three decimals (nanosecond resolution on
// microsecond timestamps). Sub-millisecond precision beyond that is below
// what the viewer renders, and fixed precision keeps a 200k-event file
// tens of percent smaller than shortest-round-trip formatting.
//
// The three-decimal case is hand-rolled integer math: strconv's fixed-
// precision 'f' path routes large timestamps (a seven-year sim span is
// ~6e10 µs) through big-decimal conversion, which profiled as the single
// largest cost of writing a 200k-span trace.
func appendTraceFloat(b []byte, v float64) []byte {
	if i := int64(v); float64(i) == v && i > -1e15 && i < 1e15 {
		return strconv.AppendInt(b, i, 10)
	}
	av := v
	if av < 0 {
		av = -av
	}
	if av < 9e15 { // av*1000+0.5 stays exact in int64; NaN/Inf fall through
		n := int64(av*1000 + 0.5)
		if v < 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, n/1000, 10)
		f := n % 1000
		return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
	}
	return strconv.AppendFloat(b, v, 'f', 3, 64)
}
