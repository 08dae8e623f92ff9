// Package des is a small discrete-event simulation kernel.
//
// Time is a float64 number of hours since the simulation epoch; the domain
// packages interpret the epoch as 00:00 on January 1 of the first simulated
// year. Events scheduled for the same instant fire in scheduling order
// (deterministic FIFO tie-breaking), which keeps whole-simulation runs
// reproducible bit-for-bit.
//
// # Memory layout
//
// The kernel is allocation-free on the hot path. Scheduling an event costs
// zero heap allocations at steady state: event state lives in a pooled
// node slab ([]node, recycled through a free list), and the priority queue
// is a struct-of-arrays 4-ary heap — a key row of order-preserving time
// bit patterns ([]uint64) and a parallel metadata row ([]slotMeta) — so
// heap comparisons are single integer compares that never chase a pointer.
//
// Every event is a Handler and an int32 argument. A caller that queues one
// event per entry of a slab it owns binds its handler once and passes the
// entry's index, so it allocates nothing per event; a closure handler is
// allocated by its caller, who passes 0. A queued event cannot be
// cancelled: it fires, or Reset drops it.
package des

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"time"

	"dcnr/internal/obs"
)

// Handler is the action an event performs when it fires. It receives the
// int32 argument queued with the event, typically an index into a slab the
// caller owns, so one handler bound once serves every event of its kind.
type Handler func(now float64, arg int32)

// The priority queue is struct-of-arrays: heapKeys holds the primary sort
// key (the event time's IEEE-754 bit pattern — for the non-negative times
// the kernel admits, float order and unsigned bit order coincide, so the
// common comparison is one uint64 compare), and heapMeta carries the
// FIFO tie-break seq plus the id of the node holding the handler.
// Splitting them keeps the pop-side min-child scan inside a 32-byte key
// row per level instead of dragging 64 bytes of metadata through the
// cache.

// keyOf converts a non-negative event time to its order-preserving
// integer key.
func keyOf(at float64) uint64 { return math.Float64bits(at) }

// slotMeta is the per-slot payload riding alongside the key.
type slotMeta struct {
	seq uint64
	id  int32
}

// node is the pooled per-event state: the handler and its argument.
type node struct {
	handler Handler
	arg     int32
}

// Simulator owns the event queue and the virtual clock. The zero value is a
// simulator at time 0 with an empty queue, ready to use.
type Simulator struct {
	now      float64
	seq      uint64
	heapKeys []uint64
	heapMeta []slotMeta
	nodes    []node
	free     []int32
	live     int // pending events, reserved ones included
	fired    uint64

	// Reserved sequence numbers (Reserve / ScheduleReserved). Each range
	// owns a run of bits in resUsed, set once its number is scheduled.
	resRanges []resRange
	resUsed   []uint64

	// Telemetry, attached by Instrument. All fields are nil (no-op) by
	// default so the uninstrumented hot loop pays nothing.
	mFired   *obs.Counter
	gQueue   *obs.Gauge
	gSimTime *obs.Gauge
	hEvent   *obs.HistogramBatch
	tracer   *obs.Tracer
	ring     *obs.SpanRing
	logger   *slog.Logger
	logDebug bool

	// lastTick is the wall-clock cursor of the instrumented loop: each
	// timing point reads the clock once and takes the previous reading as
	// its start, so per-event timing costs one clock read instead of a
	// Now/Since pair. The measured duration therefore covers kernel
	// dispatch plus the handler — the dispatch share is tens of
	// nanoseconds, noise against any real handler. In metrics-only mode
	// (no trace ring) the cursor advances once per flush window instead of
	// per event, and the histogram receives the window's per-event
	// average — clock reads stop being a per-event cost at all.
	lastTick   time.Time
	firedDelta int64 // events fired since the last metrics flush
	winEvents  int64 // events in the current metrics-only timing window

	// Sampling hook (SetSampleHook): sampleFn is invoked at every
	// multiple of sampleEvery the clock crosses, with the grid time —
	// the timeline sampler's cadence driver. sampleNext is the first
	// grid point not yet sampled; a nil sampleFn costs the hot loop one
	// pointer check per event.
	sampleEvery float64
	sampleNext  float64
	sampleFn    func(now float64)
}

// metricsFlushMask throttles shared-metric publication: the fired counter,
// the event histogram, and the two gauges are staged locally and flushed
// every 64 events mid-run (plenty for live scrape freshness) and exactly
// on every Run/Step exit, so final snapshots are precise while the hot
// loop pays no atomics at all on most events.
const metricsFlushMask = 63

// Instrument attaches telemetry to the simulator. Metrics registered on
// reg: des_events_fired_total (counter), des_queue_depth and des_sim_hours
// (gauges), and des_event_wall_seconds (histogram of per-event wall cost,
// kernel dispatch included; with tracing attached each event is timed
// individually, metrics-only mode times 64-event windows and attributes
// the per-event average). All four are staged in the kernel and published
// every 64 events and exactly at Run/Step exit — concurrent scrapers see
// totals at most 64 events stale mid-run. When tr is non-nil,
// every fired event additionally records a wall-clock span carrying the
// simulation time and queue depth into a batched ring buffer (flushed on
// Run/Step exit), plus periodic des_queue_depth counter samples — the
// sim-time-vs-wall-time view the trace viewer renders. Either argument may
// be nil.
func (s *Simulator) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if reg != nil {
		s.mFired = reg.Counter("des_events_fired_total")
		s.gQueue = reg.Gauge("des_queue_depth")
		s.gSimTime = reg.Gauge("des_sim_hours")
		s.hEvent = reg.Histogram("des_event_wall_seconds",
			[]float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}).Batch()
	}
	s.tracer = tr
	// One numeric arg per span: the sim clock, correlating wall position
	// with simulated time. Queue depth is deliberately NOT an arg — the
	// counter samples already chart it, and on a ~150k-span trace every
	// extra arg key is megabytes of file.
	s.ring = tr.Ring(obs.WallPID, 1, "des", "des.event", "sim_hours")
}

// SetLogger attaches a structured logger to the kernel: every fired event
// logs a debug record carrying the simulation clock and queue depth. The
// debug-level gate is evaluated once here, so an info-level logger costs
// the hot loop nothing. Pair with obs.NewSimHandler so records carry the
// wall clock too (slog stamps it internally — the kernel itself never
// reads wall time for simulation state). Nil detaches.
func (s *Simulator) SetLogger(l *slog.Logger) {
	s.logger = l
	s.logDebug = l != nil && l.Enabled(context.Background(), slog.LevelDebug)
}

// alloc takes a node from the free list (or grows the slab) and arms it
// with h and arg.
//
//hot:noalloc
func (s *Simulator) alloc(h Handler, arg int32) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.nodes = append(s.nodes, node{})
		id = int32(len(s.nodes) - 1)
	}
	s.nodes[id] = node{handler: h, arg: arg}
	return id
}

// heapAry is the heap branching factor. A 4-ary heap halves the tree depth
// of the pop-side sift (the DES kernel's single hottest loop) at the price
// of extra comparisons per level — and the four child keys are 32
// contiguous bytes, a half cache line per level. The pop order is
// identical for any arity: (key, seq) is a strict total order (seq is
// unique), so the heap shape never affects event order.
const heapAry = 4

// push inserts a queue entry, sifting up with inline comparisons.
//
//hot:noalloc
func (s *Simulator) push(key uint64, m slotMeta) {
	s.heapKeys = append(s.heapKeys, key)
	s.heapMeta = append(s.heapMeta, m)
	keys, meta := s.heapKeys, s.heapMeta
	i := len(keys) - 1
	for i > 0 {
		p := (i - 1) / heapAry
		pk := keys[p]
		if key > pk || (key == pk && m.seq > meta[p].seq) {
			break
		}
		keys[i], meta[i] = pk, meta[p]
		i = p
	}
	keys[i], meta[i] = key, m
}

// popRoot removes the minimum entry, sifting the last entry down the hole.
//
//hot:noalloc
func (s *Simulator) popRoot() {
	n := len(s.heapKeys) - 1
	lk, lm := s.heapKeys[n], s.heapMeta[n]
	s.heapKeys = s.heapKeys[:n]
	s.heapMeta = s.heapMeta[:n]
	if n == 0 {
		return
	}
	keys, meta := s.heapKeys, s.heapMeta
	i := 0
	for {
		c := heapAry*i + 1
		if c >= n {
			break
		}
		end := c + heapAry
		if end > n {
			end = n
		}
		// Min-child scan on the key row alone; seq breaks the (rare for
		// float times) exact key ties.
		m := c
		mk := keys[c]
		for j := c + 1; j < end; j++ {
			jk := keys[j]
			if jk < mk || (jk == mk && meta[j].seq < meta[m].seq) {
				m, mk = j, jk
			}
		}
		if mk > lk || (mk == lk && meta[m].seq > lm.seq) {
			break
		}
		keys[i], meta[i] = mk, meta[m]
		i = m
	}
	keys[i], meta[i] = lk, lm
}

// logFired emits the per-event debug record. Kept outside fireNext's
// //hot:noalloc region: slog attribute construction allocates, and the
// logDebug gate means this only runs with debug logging enabled.
func (s *Simulator) logFired(seq uint64) {
	s.logger.Debug("des event fired",
		slog.Uint64("seq", seq),
		slog.Int("pending", s.live),
		obs.SimHours(s.now))
}

// SetSampleHook registers fn to run each time the simulation clock
// reaches or crosses a multiple of period (in hours), called with the
// grid time k·period rather than the event time — so sampled series land
// on a fixed cadence grid, deterministic for a fixed seed no matter how
// events fall between grid points. The hook runs on the simulation
// goroutine, from inside the event loop, before the crossing event's
// handler: it must not allocate, not schedule, and not read the wall
// clock (the timeline sampler is the intended caller). Periods ≤ 0 or a
// nil fn detach the hook.
//
// Grid points are only visited when an event crosses them: a quiet
// stretch with no events samples nothing, which is exactly right for
// delta-style samplers — with no events, no instrumented value changed.
func (s *Simulator) SetSampleHook(period float64, fn func(now float64)) {
	if fn == nil || !(period > 0) {
		s.sampleFn = nil
		return
	}
	s.sampleEvery = period
	s.sampleNext = (math.Floor(s.now/period) + 1) * period
	s.sampleFn = fn
}

// runSamples visits every unsampled grid point up to at, in order.
//
//hot:noalloc
func (s *Simulator) runSamples(at float64) {
	for s.sampleNext <= at {
		s.sampleFn(s.sampleNext)
		s.sampleNext += s.sampleEvery
	}
}

// fireNext pops the queue's root event and runs its handler at the
// event's time, with telemetry when attached. The node goes back to the
// free list before the handler runs: its handler and argument are
// already read out, so an event the handler schedules may reuse it.
//
//hot:noalloc
func (s *Simulator) fireNext() {
	at := math.Float64frombits(s.heapKeys[0])
	sm := s.heapMeta[0]
	s.popRoot()
	nd := &s.nodes[sm.id]
	h, arg := nd.handler, nd.arg
	nd.handler = nil
	s.free = append(s.free, sm.id)
	s.live--
	s.now = at
	s.fired++
	if s.sampleFn != nil && at >= s.sampleNext {
		s.runSamples(at)
	}
	if s.logDebug {
		s.logFired(sm.seq)
	}
	plain := s.mFired == nil && s.ring == nil
	h(at, arg)
	if plain {
		return
	}
	if s.ring == nil {
		// Metrics-only: no per-event clock read. Events are counted now
		// and timed in windows — closeTimingWindow reads the clock once
		// per flush window and attributes the per-event average.
		s.firedDelta++
		s.winEvents++
		if s.fired&metricsFlushMask == 0 {
			s.closeTimingWindow()
			s.flushMetrics()
		}
		return
	}
	// Traced: one clock read per event; the span runs from the previous
	// reading (set at Run/Step entry, advanced here) to now.
	tick := time.Now() //lint:allow simdeterminism wall-clock telemetry, not simulation state
	wall := tick.Sub(s.lastTick)
	if s.mFired != nil {
		s.firedDelta++
		s.hEvent.Observe(wall.Seconds())
		if s.fired&metricsFlushMask == 0 {
			s.flushMetrics()
		}
	}
	s.ring.RecordWall(-1, s.lastTick, wall, s.now, 0, 0)
	// A queue-depth sample every 256 events keeps the counter chart
	// readable without drowning the trace in samples.
	if s.fired%256 == 0 {
		s.tracer.CounterSample("des_queue_depth", float64(s.live))
	}
	s.lastTick = tick
}

// closeTimingWindow ends the current metrics-only timing window: one clock
// read covers every event since the last close, and each gets the window's
// per-event average in the wall histogram.
func (s *Simulator) closeTimingWindow() {
	tick := time.Now() //lint:allow simdeterminism wall-clock telemetry, not simulation state
	if s.winEvents > 0 {
		avg := tick.Sub(s.lastTick).Seconds() / float64(s.winEvents)
		s.hEvent.ObserveN(avg, s.winEvents)
		s.winEvents = 0
	}
	s.lastTick = tick
}

// flushMetrics publishes the staged counter, histogram, and gauge values
// to the shared registry metrics.
func (s *Simulator) flushMetrics() {
	s.mFired.Add(s.firedDelta)
	s.firedDelta = 0
	s.hEvent.Flush()
	s.gQueue.Set(float64(s.live))
	// An unbounded Run leaves the clock at +Inf, which no JSON snapshot
	// can carry: the gauge keeps the last finite time, which Run publishes
	// before advancing the clock past its final event.
	if !math.IsInf(s.now, 0) {
		s.gSimTime.Set(s.now)
	}
}

// startTelemetry resets the wall-clock cursor at Run/Step entry.
func (s *Simulator) startTelemetry() {
	if s.mFired != nil || s.ring != nil {
		s.lastTick = time.Now() //lint:allow simdeterminism wall-clock telemetry, not simulation state
		s.winEvents = 0
	}
}

// syncTelemetry brings the staged telemetry exact and publishes the span
// ring — called on every Run/Step exit, outside the hot loop.
func (s *Simulator) syncTelemetry() {
	if s.mFired != nil {
		if s.ring == nil {
			s.closeTimingWindow()
		}
		s.flushMetrics()
	}
	s.ring.Flush()
}

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("des: schedule in the past")

// ErrNotReserved is returned by ScheduleReserved for a sequence number
// that Reserve never handed out, or that already queued an event.
var ErrNotReserved = errors.New("des: sequence number not reserved")

// resRange is one Reserve call: the numbers [lo, lo+n), whose used bits
// start at bit off of resUsed.
type resRange struct {
	lo, n, off uint64
}

// Now returns the current virtual time in hours.
func (s *Simulator) Now() float64 { return s.now }

// Fired reports how many events have executed.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports how many events are waiting in the queue. Reserved
// sequence numbers not yet scheduled are counted: each stands for an
// event its owner will queue.
func (s *Simulator) Pending() int { return s.live }

// Schedule queues h to fire with arg at absolute time at. It returns
// ErrPast if at precedes the current time.
//
//hot:noalloc
func (s *Simulator) Schedule(at float64, h Handler, arg int32) error {
	if at < s.now || math.IsNaN(at) {
		return ErrPast
	}
	s.push(keyOf(at), slotMeta{seq: s.seq, id: s.alloc(h, arg)})
	s.seq++
	s.live++
	return nil
}

// Reserve sets aside n consecutive sequence numbers, the ones the next n
// Schedule calls would have taken, and returns the first. Each counts as
// a pending event until it fires. A caller that knows a batch of future
// events up front reserves their numbers in one call and queues each with
// ScheduleReserved only when it is next due, so the heap holds one event
// of the batch instead of all of them, while the firing order and Pending
// stay exactly what scheduling them all at once gives. Every reserved
// number must eventually be scheduled, or Pending never drains to zero.
// Reset drops all reservations.
//
//hot:noalloc
func (s *Simulator) Reserve(n int) uint64 {
	lo := s.seq
	if n <= 0 {
		return lo
	}
	off := uint64(len(s.resUsed)) * 64
	for w := (n + 63) / 64; w > 0; w-- {
		s.resUsed = append(s.resUsed, 0)
	}
	s.resRanges = append(s.resRanges, resRange{lo: lo, n: uint64(n), off: off})
	s.seq += uint64(n)
	s.live += n
	return lo
}

// ScheduleReserved queues h to fire with arg at absolute time at under
// seq, a number handed out by Reserve: among events at the same instant
// it fires in seq order, as if it had been scheduled when seq was
// reserved. It returns ErrPast if at precedes the current time, and
// ErrNotReserved if seq was never reserved or already queued an event.
// Pending does not change: the reservation already counted the event.
//
//hot:noalloc
func (s *Simulator) ScheduleReserved(at float64, seq uint64, h Handler, arg int32) error {
	if at < s.now || math.IsNaN(at) {
		return ErrPast
	}
	for _, r := range s.resRanges {
		if i := seq - r.lo; i < r.n {
			bit := r.off + i
			word, mask := bit/64, uint64(1)<<(bit%64)
			if s.resUsed[word]&mask != 0 {
				break
			}
			s.resUsed[word] |= mask
			s.push(keyOf(at), slotMeta{seq: seq, id: s.alloc(h, arg)})
			return nil
		}
	}
	return ErrNotReserved
}

// After queues h to fire with arg delay hours from now. Negative delays
// are clamped to zero so callers can pass small jittered values safely.
//
//hot:noalloc
func (s *Simulator) After(delay float64, h Handler, arg int32) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	_ = s.Schedule(s.now+delay, h, arg)
}

// Run executes events in order until the queue is empty or an event
// beyond until is reached. The clock finishes at until. Events scheduled
// exactly at until do fire. A NaN until runs nothing: no comparison
// against NaN can admit an event, so the queue and clock are left
// untouched.
//
//hot:noalloc
func (s *Simulator) Run(until float64) {
	if math.IsNaN(until) {
		return
	}
	s.startTelemetry()
	for len(s.heapKeys) > 0 && math.Float64frombits(s.heapKeys[0]) <= until {
		s.fireNext()
	}
	if s.now < until {
		if math.IsInf(until, 1) {
			s.gSimTime.Set(s.now)
		}
		s.now = until
	}
	s.syncTelemetry()
}

// Step executes exactly one event if any is pending and reports whether
// one fired.
//
//hot:noalloc
func (s *Simulator) Step() bool {
	if len(s.heapKeys) == 0 {
		return false
	}
	s.startTelemetry()
	s.fireNext()
	s.syncTelemetry()
	return true
}

// Reset returns the simulator to time zero with an empty queue and no
// reservations, keeping the node slab, free list, and heap capacity for
// reuse — a long-lived simulator (or benchmark) pays the slab allocations
// once. Events queued before the Reset never fire. Telemetry attachments
// survive.
func (s *Simulator) Reset() {
	s.heapKeys = s.heapKeys[:0]
	s.heapMeta = s.heapMeta[:0]
	s.free = s.free[:0]
	for i := range s.nodes {
		s.nodes[i].handler = nil
		s.free = append(s.free, int32(i))
	}
	s.live = 0
	s.resRanges = s.resRanges[:0]
	s.resUsed = s.resUsed[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	if s.sampleFn != nil {
		s.sampleNext = s.sampleEvery
	}
}

// HoursPerYear is the calendar conversion used across the simulation: the
// study reports device-hours using 365-day years.
const HoursPerYear = 365 * 24

// Year converts an absolute simulation time to a year index (0-based) given
// the simulation epoch year, e.g. epochYear 2011 maps t=0 to 2011.
func Year(t float64, epochYear int) int {
	if t < 0 {
		t = 0
	}
	return epochYear + int(t/HoursPerYear)
}

// YearStart returns the simulation time at which the given calendar year
// begins.
func YearStart(year, epochYear int) float64 {
	return float64(year-epochYear) * HoursPerYear
}
