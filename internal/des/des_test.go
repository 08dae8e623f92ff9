package des

import (
	"io"
	"math"
	"testing"
	"testing/quick"

	"dcnr/internal/obs"
	"dcnr/internal/simrand"
)

func TestRunOrdersEvents(t *testing.T) {
	var s Simulator
	var order []int
	s.After(3, func(float64, int32) { order = append(order, 3) }, 0)
	s.After(1, func(float64, int32) { order = append(order, 1) }, 0)
	s.After(2, func(float64, int32) { order = append(order, 2) }, 0)
	s.Run(10)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var s Simulator
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(1, func(float64, int32) { order = append(order, i) }, 0)
	}
	s.Run(2)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	var s Simulator
	s.After(5, func(float64, int32) {}, 0)
	s.Run(10)
	if err := s.Schedule(3, func(float64, int32) {}, 0); err != ErrPast {
		t.Errorf("Schedule in the past: err = %v, want ErrPast", err)
	}
}

func TestEventsBeyondUntilDoNotFire(t *testing.T) {
	var s Simulator
	fired := false
	s.After(5, func(float64, int32) { fired = true }, 0)
	s.Run(4)
	if fired {
		t.Error("event at t=5 fired during Run(4)")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run(5) // boundary: events exactly at until fire
	if !fired {
		t.Error("event at t=5 did not fire during Run(5)")
	}
}

func TestScheduleDuringRun(t *testing.T) {
	var s Simulator
	var times []float64
	s.After(1, func(now float64, _ int32) {
		times = append(times, now)
		s.After(1, func(now float64, _ int32) { times = append(times, now) }, 0)
	}, 0)
	s.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("times = %v", times)
	}
}

func TestStep(t *testing.T) {
	var s Simulator
	n := 0
	s.After(1, func(float64, int32) { n++ }, 0)
	s.After(2, func(float64, int32) { n++ }, 0)
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n = %d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n = %d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	var s Simulator
	for i := 0; i < 7; i++ {
		s.After(float64(i), func(float64, int32) {}, 0)
	}
	s.Run(100)
	if s.Fired() != 7 {
		t.Errorf("Fired = %d, want 7", s.Fired())
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	var s Simulator
	fired := false
	s.After(-5, func(float64, int32) { fired = true }, 0)
	s.Run(0)
	if !fired {
		t.Error("negative-delay event did not fire at t=0")
	}
}

func TestYearConversions(t *testing.T) {
	if y := Year(0, 2011); y != 2011 {
		t.Errorf("Year(0) = %d", y)
	}
	if y := Year(HoursPerYear-1, 2011); y != 2011 {
		t.Errorf("Year(last hour of 2011) = %d", y)
	}
	if y := Year(HoursPerYear, 2011); y != 2012 {
		t.Errorf("Year(first hour of 2012) = %d", y)
	}
	if ys := YearStart(2015, 2011); ys != 4*HoursPerYear {
		t.Errorf("YearStart(2015) = %v", ys)
	}
	if y := Year(-10, 2011); y != 2011 {
		t.Errorf("Year(-10) = %d, want clamp to epoch", y)
	}
}

func TestEventOrderProperty(t *testing.T) {
	// Whatever random times we schedule, firing order is non-decreasing.
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		var s Simulator
		var fired []float64
		for i := 0; i < 200; i++ {
			s.After(r.Float64()*100, func(now float64, _ int32) { fired = append(fired, now) }, 0)
		}
		s.Run(100)
		if len(fired) != 200 {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentedRunRecordsMetricsAndTrace(t *testing.T) {
	var s Simulator
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	s.Instrument(reg, tr)
	const n = 300
	for i := 0; i < n; i++ {
		s.After(float64(i), func(float64, int32) {}, 0)
	}
	s.Run(1000)
	snap := reg.Snapshot()
	if got := snap.Counters["des_events_fired_total"]; got != n {
		t.Errorf("des_events_fired_total = %d, want %d", got, n)
	}
	if got := snap.Gauges["des_queue_depth"]; got != 0 {
		t.Errorf("final des_queue_depth = %v, want 0", got)
	}
	if got := snap.Gauges["des_sim_hours"]; got != 1000 {
		t.Errorf("des_sim_hours = %v, want 1000 (clock synced exactly at Run exit)", got)
	}
	if got := snap.Histograms["des_event_wall_seconds"].Count; got != n {
		t.Errorf("event histogram count = %d, want %d", got, n)
	}
	// One span per event plus a queue-depth sample every 256 events.
	spans := 0
	samples := 0
	for _, e := range tr.Events() {
		switch e.Phase {
		case "X":
			spans++
			if e.Args["sim_hours"] == nil {
				t.Fatal("des span missing sim_hours arg")
			}
		case "C":
			samples++
		}
	}
	if spans != n {
		t.Errorf("trace spans = %d, want %d", spans, n)
	}
	if samples != n/256 {
		t.Errorf("counter samples = %d, want %d", samples, n/256)
	}
}

func TestInstrumentMetricsOnlyAndStep(t *testing.T) {
	var s Simulator
	reg := obs.NewRegistry()
	s.Instrument(reg, nil) // metrics without tracing
	s.After(1, func(float64, int32) {}, 0)
	s.After(2, func(float64, int32) {}, 0)
	s.Step()
	if got := reg.Counter("des_events_fired_total").Value(); got != 1 {
		t.Errorf("fired after Step = %d, want 1", got)
	}
	if got := reg.Gauge("des_queue_depth").Value(); got != 1 {
		t.Errorf("queue depth = %v, want 1", got)
	}
}

// benchTimes is the 10k-event schedule the kernel benches and the
// allocation gate replay.
func benchTimes() []float64 {
	r := simrand.New(1)
	times := make([]float64, 10000)
	for i := range times {
		times[i] = r.Float64() * 1000
	}
	return times
}

func benchIterate(s *Simulator, times []float64) {
	s.Reset()
	for _, at := range times {
		s.After(at, func(float64, int32) {}, 0)
	}
	s.Run(1000)
}

// TestScheduleAndRunSteadyStateAllocs is the pooling gate: once one
// iteration has grown the pool slabs and heap arrays, a recycled simulator
// schedules and drains 10k events without allocating, plain and with a
// metrics registry attached.
func TestScheduleAndRunSteadyStateAllocs(t *testing.T) {
	times := benchTimes()
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		var s Simulator
		s.Instrument(reg, nil)
		benchIterate(&s, times)
		if n := testing.AllocsPerRun(5, func() { benchIterate(&s, times) }); n != 0 {
			t.Errorf("instrumented=%v: %v allocs per schedule-and-run, want 0 (event pooling regressed)", reg != nil, n)
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	// One long-lived simulator recycled with Reset between iterations —
	// the Monte-Carlo campaign pattern the pooled kernel is built for.
	times := benchTimes()
	var s Simulator
	// One untimed iteration grows the pool slabs and heap arrays so the
	// counted loop measures the recycled steady state.
	benchIterate(&s, times)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIterate(&s, times)
	}
}

func BenchmarkObsScheduleAndRunInstrumented(b *testing.B) {
	// The metrics-only counterpart of BenchmarkScheduleAndRun: the delta is
	// the kernel-level instrumentation overhead `scripts/bench.sh obs`
	// records.
	times := benchTimes()
	var s Simulator
	s.Instrument(obs.NewRegistry(), nil)
	benchIterate(&s, times)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIterate(&s, times)
	}
}

func TestRunNaNUntilRunsNothing(t *testing.T) {
	// Regression: NaN poisons every `at > until` comparison, so the old
	// loop drained the whole queue. NaN must run nothing past now.
	var s Simulator
	fired := 0
	s.After(1, func(float64, int32) { fired++ }, 0)
	s.After(2, func(float64, int32) { fired++ }, 0)
	s.Run(math.NaN())
	if fired != 0 {
		t.Errorf("Run(NaN) fired %d events, want 0", fired)
	}
	if s.Pending() != 2 {
		t.Errorf("Pending after Run(NaN) = %d, want 2", s.Pending())
	}
	if s.Now() != 0 {
		t.Errorf("Now after Run(NaN) = %v, want 0 (clock untouched)", s.Now())
	}
	s.Run(10)
	if fired != 2 {
		t.Errorf("queue unusable after Run(NaN): fired = %d, want 2", fired)
	}
}

func TestScheduleNaNRejected(t *testing.T) {
	var s Simulator
	if err := s.Schedule(math.NaN(), func(float64, int32) {}, 0); err != ErrPast {
		t.Errorf("Schedule(NaN): err = %v, want ErrPast", err)
	}
	fired := false
	s.After(math.NaN(), func(float64, int32) { fired = true }, 0)
	s.Run(1)
	if !fired {
		t.Error("After(NaN) did not clamp to an immediate event")
	}
}

// checkHeapInvariant verifies the min-heap property over the slot slab,
// that every pooled node is either queued or free (exactly once), and
// that the pending count matches the queued events plus the unscheduled
// reservations.
func checkHeapInvariant(t *testing.T, s *Simulator) {
	t.Helper()
	if len(s.heapKeys) != len(s.heapMeta) {
		t.Fatalf("key row and meta row diverged: %d vs %d", len(s.heapKeys), len(s.heapMeta))
	}
	less := func(i, j int) bool {
		if s.heapKeys[i] != s.heapKeys[j] {
			return s.heapKeys[i] < s.heapKeys[j]
		}
		return s.heapMeta[i].seq < s.heapMeta[j].seq
	}
	for i := 1; i < len(s.heapKeys); i++ {
		p := (i - 1) / heapAry
		if less(i, p) {
			t.Fatalf("heap invariant broken at %d: child (%d,%d) < parent (%d,%d)",
				i, s.heapKeys[i], s.heapMeta[i].seq, s.heapKeys[p], s.heapMeta[p].seq)
		}
	}
	uses := make([]int, len(s.nodes))
	for _, sm := range s.heapMeta {
		uses[sm.id]++
	}
	for _, id := range s.free {
		uses[id]++
	}
	for id, n := range uses {
		if n != 1 {
			t.Fatalf("node %d is queued or free %d times, want exactly once", id, n)
		}
	}
	if unsched := unscheduledReservations(s); len(s.heapMeta)+unsched != s.live {
		t.Fatalf("live = %d but heap holds %d events and %d unscheduled reservations",
			s.live, len(s.heapMeta), unsched)
	}
}

// unscheduledReservations counts the reserved sequence numbers that have
// not queued an event yet; live counts them as pending.
func unscheduledReservations(s *Simulator) int {
	n := 0
	for _, r := range s.resRanges {
		for i := uint64(0); i < r.n; i++ {
			bit := r.off + i
			if s.resUsed[bit/64]&(1<<(bit%64)) == 0 {
				n++
			}
		}
	}
	return n
}

func TestHeapInvariantUnderChurn(t *testing.T) {
	// Heavy interleaved schedule/step churn, checking the heap invariant
	// and pool accounting at every step. Some handlers schedule a follow-up
	// event, which may reuse the node the firing event just freed.
	r := simrand.New(42)
	var s Simulator
	followUp := func(float64, int32) { s.After(r.Float64()*10, func(float64, int32) {}, 0) }
	for i := 0; i < 2000; i++ {
		switch {
		case r.Bool(0.4):
			s.After(r.Float64()*100, func(float64, int32) {}, 0)
		case r.Bool(0.3):
			s.After(r.Float64()*100, followUp, 0)
		default:
			s.Step()
		}
		checkHeapInvariant(t, &s)
	}
	s.Run(math.Inf(1))
	if s.Pending() != 0 {
		t.Errorf("Pending after drain = %d, want 0", s.Pending())
	}
	checkHeapInvariant(t, &s)
}

// TestUnboundedRunPublishesFiniteSimHours pins the des_sim_hours gauge
// after Run(+Inf): the clock itself ends at +Inf, but the gauge holds the
// last event's time, so the snapshot stays JSON-encodable.
func TestUnboundedRunPublishesFiniteSimHours(t *testing.T) {
	var s Simulator
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	for i := 1; i <= 100; i++ {
		s.After(float64(i), func(float64, int32) {}, 0)
	}
	s.Run(math.Inf(1))
	if !math.IsInf(s.Now(), 1) {
		t.Fatalf("Now() = %v after an unbounded run, want +Inf", s.Now())
	}
	if got := reg.Snapshot().Gauges["des_sim_hours"]; got != 100 {
		t.Errorf("des_sim_hours = %v, want 100 (the last event's time)", got)
	}
	if err := reg.Snapshot().WriteJSON(io.Discard); err != nil {
		t.Errorf("WriteJSON after an unbounded run: %v", err)
	}
}

func TestSampleHookGridCrossing(t *testing.T) {
	var s Simulator
	var grid []float64
	s.SetSampleHook(10, func(now float64) { grid = append(grid, now) })
	for _, at := range []float64{3, 9.5, 21, 45, 45.5} {
		if err := s.Schedule(at, func(float64, int32) {}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(100)
	// The event at 21 crosses grid points 10 and 20; 45 crosses 30 and 40.
	want := []float64{10, 20, 30, 40}
	if len(grid) != len(want) {
		t.Fatalf("grid samples = %v, want %v", grid, want)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("grid samples = %v, want %v", grid, want)
		}
	}
}

func TestSampleHookDetachAndReset(t *testing.T) {
	var s Simulator
	calls := 0
	s.SetSampleHook(5, func(float64) { calls++ })
	s.Schedule(7, func(float64, int32) {}, 0)
	s.Run(10)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	s.Reset()
	s.Schedule(6, func(float64, int32) {}, 0)
	s.Run(10)
	if calls != 2 {
		t.Fatalf("after Reset: calls = %d, want 2 (grid restarts at period)", calls)
	}
	s.SetSampleHook(0, nil)
	s.Schedule(11, func(float64, int32) {}, 0)
	s.Run(20)
	if calls != 2 {
		t.Fatalf("after detach: calls = %d, want 2", calls)
	}
}

func TestSampleHookMidRunAttach(t *testing.T) {
	var s Simulator
	s.Schedule(12, func(float64, int32) {}, 0)
	s.Run(15) // clock at 15
	var grid []float64
	s.SetSampleHook(10, func(now float64) { grid = append(grid, now) })
	s.Schedule(19, func(float64, int32) {}, 0)
	s.Schedule(21, func(float64, int32) {}, 0)
	s.Run(30)
	// First grid point strictly after attach time 15 is 20.
	if len(grid) != 1 || grid[0] != 20 {
		t.Fatalf("grid = %v, want [20]", grid)
	}
}
