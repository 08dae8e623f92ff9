package des

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"dcnr/internal/simrand"
)

// refEvent is one event of the reference queue: its time, its sequence
// number, and the value its handler logs when it fires.
type refEvent struct {
	at     float64
	seq    uint64
	logged int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any     { old := *q; e := old[len(old)-1]; *q = old[:len(old)-1]; return e }

// refSim is the naive model the pooled kernel is checked against: a
// container/heap of events, a plain counter for sequence numbers, and a
// set of unscheduled reserved numbers.
type refSim struct {
	q        refQueue
	now      float64
	seq      uint64
	pending  int
	reserved map[uint64]bool
	log      []int
}

func (r *refSim) schedule(at float64, logged int) {
	heap.Push(&r.q, refEvent{at: at, seq: r.seq, logged: logged})
	r.seq++
	r.pending++
}

// step fires the next event at or before until and reports whether one
// fired.
func (r *refSim) step(until float64) bool {
	if r.q.Len() == 0 || r.q[0].at > until {
		return false
	}
	e := heap.Pop(&r.q).(refEvent)
	r.pending--
	r.now = e.at
	r.log = append(r.log, e.logged)
	return true
}

func (r *refSim) run(until float64) {
	for r.step(until) {
	}
	if r.now < until {
		r.now = until
	}
}

func (r *refSim) reset() {
	r.q = r.q[:0]
	r.now, r.seq, r.pending, r.log = 0, 0, 0, r.log[:0]
	r.reserved = map[uint64]bool{}
}

// TestDifferentialAgainstHeapReference drives the kernel and the
// reference with the same random stream of Schedule, After, Step, Run,
// Reset, Reserve and ScheduleReserved calls, and requires the same fired
// events in the same order, the same return values, the same clock and
// the same Pending and Fired counts after every call. Each event carries
// a distinct argument and one of two handlers, which log the argument it
// fired with differently, so a wrong argument or a wrong handler shows as
// a wrong entry in the log. Times sit on a coarse grid so same-instant
// ties are common.
func TestDifferentialAgainstHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { differentialRun(t, seed) })
	}
}

func differentialRun(t *testing.T, seed uint64) {
	rng := simrand.New(seed)
	var s Simulator
	ref := &refSim{reserved: map[uint64]bool{}}
	var log []int
	handlers := [2]Handler{
		func(_ float64, arg int32) { log = append(log, int(arg)) },
		func(_ float64, arg int32) { log = append(log, -int(arg)-1) },
	}
	var reservedSeqs []uint64
	nextArg := int32(0)
	// event picks a handler and a fresh argument, and returns the value
	// the event logs when it fires.
	event := func() (Handler, int32, int) {
		arg := nextArg
		nextArg++
		if rng.Bool(0.5) {
			return handlers[0], arg, int(arg)
		}
		return handlers[1], arg, -int(arg) - 1
	}
	at := func() float64 { return s.Now() + float64(rng.Intn(12))*0.5 }

	for op := 0; op < 400; op++ {
		var what string
		switch k := rng.Intn(100); {
		case k < 25:
			what = "Schedule"
			when := at()
			h, arg, logged := event()
			if err := s.Schedule(when, h, arg); err != nil {
				t.Fatalf("op %d: Schedule(%v): %v", op, when, err)
			}
			ref.schedule(when, logged)
		case k < 40:
			what = "After"
			// A negative delay is clamped to now.
			delay := float64(rng.Intn(13)-1) * 0.5
			h, arg, logged := event()
			s.After(delay, h, arg)
			ref.schedule(ref.now+max(delay, 0), logged)
		case k < 50:
			what = "Reserve"
			n := rng.Intn(6)
			lo := s.Reserve(n)
			if lo != ref.seq {
				t.Fatalf("op %d: Reserve(%d) = %d, reference %d", op, n, lo, ref.seq)
			}
			for i := uint64(0); i < uint64(n); i++ {
				ref.reserved[lo+i] = true
				reservedSeqs = append(reservedSeqs, lo+i)
			}
			ref.seq += uint64(n)
			ref.pending += n
		case k < 65:
			what = "ScheduleReserved"
			// Mostly numbers still reserved; sometimes used, stale
			// (pre-Reset) or never-reserved ones, and sometimes a past time.
			var seq uint64
			if len(reservedSeqs) > 0 && rng.Bool(0.85) {
				seq = reservedSeqs[rng.Intn(len(reservedSeqs))]
			} else {
				seq = uint64(rng.Intn(int(ref.seq) + 3))
			}
			when := at()
			if rng.Bool(0.1) && s.Now() > 0 {
				when = s.Now() - 0.5
			}
			h, arg, logged := event()
			err := s.ScheduleReserved(when, seq, h, arg)
			var want error
			switch {
			case when < ref.now:
				want = ErrPast
			case !ref.reserved[seq]:
				want = ErrNotReserved
			}
			if err != want {
				t.Fatalf("op %d: ScheduleReserved(%v, %d) err = %v, reference %v", op, when, seq, err, want)
			}
			if err == nil {
				delete(ref.reserved, seq)
				heap.Push(&ref.q, refEvent{at: when, seq: seq, logged: logged})
			}
		case k < 80:
			what = "Step"
			if got, want := s.Step(), ref.step(math.Inf(1)); got != want {
				t.Fatalf("op %d: Step = %v, reference %v", op, got, want)
			}
		case k < 97:
			what = "Run"
			until := at()
			s.Run(until)
			ref.run(until)
		default:
			what = "Reset"
			s.Reset()
			ref.reset()
			log = log[:0]
			reservedSeqs = reservedSeqs[:0]
		}
		if fmt.Sprint(log) != fmt.Sprint(ref.log) {
			t.Fatalf("op %d (%s): fired %v, reference %v", op, what, log, ref.log)
		}
		if s.Now() != ref.now || s.Pending() != ref.pending || s.Fired() != uint64(len(ref.log)) {
			t.Fatalf("op %d (%s): now %v pending %d fired %d, reference now %v pending %d fired %d",
				op, what, s.Now(), s.Pending(), s.Fired(), ref.now, ref.pending, len(ref.log))
		}
		checkHeapInvariant(t, &s)
	}
}
