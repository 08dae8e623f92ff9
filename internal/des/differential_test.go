package des

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"dcnr/internal/simrand"
)

// refEvent is one event of the reference queue. A chain event belongs to
// an Every chain and re-arms itself when it fires.
type refEvent struct {
	at        float64
	seq       uint64
	id        int // logged when it fires
	epoch     int // Reset generation it was scheduled in
	chain     *refChain
	fired     bool
	cancelled bool
}

type refChain struct {
	period  float64
	cur     *refEvent
	stopped bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)     { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any       { old := *q; e := old[len(old)-1]; *q = old[:len(old)-1]; return e }
func (q refQueue) peek() *refEvent { return q[0] }
func (q *refQueue) discardCancelled() {
	for q.Len() > 0 && q.peek().cancelled {
		heap.Pop(q)
	}
}

// refSim is the naive model the pooled kernel is checked against: a
// container/heap of pointers, a plain counter for sequence numbers, and
// a set of unscheduled reserved numbers.
type refSim struct {
	q        refQueue
	now      float64
	seq      uint64
	epoch    int
	pending  int
	reserved map[uint64]bool
	log      []int
}

func (r *refSim) push(at float64, seq uint64, id int, chain *refChain) *refEvent {
	e := &refEvent{at: at, seq: seq, id: id, epoch: r.epoch, chain: chain}
	heap.Push(&r.q, e)
	return e
}

func (r *refSim) schedule(at float64, id int, chain *refChain) *refEvent {
	e := r.push(at, r.seq, id, chain)
	r.seq++
	r.pending++
	return e
}

func (r *refSim) cancel(e *refEvent) bool {
	if e == nil || e.epoch != r.epoch || e.fired || e.cancelled {
		return false
	}
	e.cancelled = true
	r.pending--
	return true
}

// step fires the next event at or before until and reports whether one
// fired.
func (r *refSim) step(until float64) bool {
	r.q.discardCancelled()
	if r.q.Len() == 0 || r.q.peek().at > until {
		return false
	}
	e := heap.Pop(&r.q).(*refEvent)
	e.fired = true
	r.pending--
	r.now = e.at
	r.log = append(r.log, e.id)
	if c := e.chain; c != nil && !c.stopped {
		c.cur = r.schedule(r.now+c.period, e.id, c)
	}
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
	r.epoch++
	r.reserved = map[uint64]bool{}
}

// TestDifferentialAgainstHeapReference drives the kernel and the
// reference with the same random stream of Schedule, AfterArg, Cancel,
// Every (and stop), Step, Run, Reset, Reserve and ScheduleReserved calls,
// and requires the same fired events in the same order, the same return
// values, the same clock and the same Pending count after every call. A
// payload event logs the argument it fired with, so a wrong payload shows
// as a wrong event in the log.
// Times sit on a coarse grid so same-instant ties are common, and Cancel
// is aimed at handles of every age, so fired, cancelled, recycled and
// pre-Reset handles all get exercised.
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
	type tracked struct {
		h Handle
		e *refEvent
	}
	var handles []tracked
	var stops []func()
	var chains []*refChain
	var reservedSeqs []uint64
	nextID := 0
	newHandler := func() (int, Handler) {
		id := nextID
		nextID++
		return id, func(float64) { log = append(log, id) }
	}
	// One payload handler serves every AfterArg event, as in the faults
	// driver: the event's identity travels in its argument.
	argHandler := func(_ float64, arg int32) { log = append(log, int(arg)) }
	at := func() float64 { return s.Now() + float64(rng.Intn(12))*0.5 }

	for op := 0; op < 400; op++ {
		var what string
		switch k := rng.Intn(100); {
		case k < 20:
			what = "Schedule"
			when := at()
			id, h := newHandler()
			hd, err := s.Schedule(when, h)
			if err != nil {
				t.Fatalf("op %d: Schedule(%v): %v", op, when, err)
			}
			handles = append(handles, tracked{hd, ref.schedule(when, id, nil)})
		case k < 30:
			what = "AfterArg"
			// A negative delay is clamped to now.
			delay := float64(rng.Intn(13)-1) * 0.5
			id := nextID
			nextID++
			hd := s.AfterArg(delay, argHandler, int32(id))
			handles = append(handles, tracked{hd, ref.schedule(ref.now+max(delay, 0), id, nil)})
		case k < 45 && len(handles) > 0:
			what = "Cancel"
			tr := handles[rng.Intn(len(handles))]
			if got, want := s.Cancel(tr.h), ref.cancel(tr.e); got != want {
				t.Fatalf("op %d: Cancel = %v, reference %v", op, got, want)
			}
		case k < 50:
			what = "Every"
			start, period := at(), float64(1+rng.Intn(4))
			id, h := newHandler()
			stops = append(stops, s.Every(start, period, h))
			c := &refChain{period: period}
			c.cur = ref.schedule(start, id, c)
			chains = append(chains, c)
		case k < 55 && len(stops) > 0:
			what = "stop"
			i := rng.Intn(len(stops))
			stops[i]()
			chains[i].stopped = true
			ref.cancel(chains[i].cur)
		case k < 62:
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
		case k < 75:
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
			id, h := newHandler()
			hd, err := s.ScheduleReserved(when, seq, h)
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
				handles = append(handles, tracked{hd, ref.push(when, seq, id, nil)})
			}
		case k < 85:
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
		if s.Now() != ref.now || s.Pending() != ref.pending {
			t.Fatalf("op %d (%s): now %v pending %d, reference now %v pending %d",
				op, what, s.Now(), s.Pending(), ref.now, ref.pending)
		}
		checkHeapInvariant(t, &s)
	}
}
