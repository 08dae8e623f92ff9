package des

import (
	"math"
	"testing"
)

func TestScheduleReservedWinsTieOnLowerSeq(t *testing.T) {
	var s Simulator
	var order []string
	seq := s.Reserve(1)
	s.Schedule(5, func(float64, int32) { order = append(order, "scheduled") }, 0)
	if err := s.ScheduleReserved(5, seq, func(float64, int32) { order = append(order, "reserved") }, 0); err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if len(order) != 2 || order[0] != "reserved" || order[1] != "scheduled" {
		t.Errorf("order = %v, want the reserved event first", order)
	}
}

func TestReservePendingCountsReservations(t *testing.T) {
	var s Simulator
	lo := s.Reserve(3)
	if lo != 0 || s.Pending() != 3 {
		t.Fatalf("Reserve(3) = %d, Pending = %d; want 0, 3", lo, s.Pending())
	}
	if next := s.Reserve(0); next != 3 || s.Pending() != 3 {
		t.Errorf("Reserve(0) = %d, Pending = %d; want 3, 3", next, s.Pending())
	}
	if err := s.ScheduleReserved(1, lo+1, func(float64, int32) {}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 3 {
		t.Errorf("Pending after ScheduleReserved = %d, want 3", s.Pending())
	}
	s.Run(2)
	if s.Pending() != 2 {
		t.Errorf("Pending after the reserved event fired = %d, want 2", s.Pending())
	}
	checkHeapInvariant(t, &s)
	// The next plain Schedule takes the number after the reservation.
	if err := s.Schedule(3, func(float64, int32) {}, 0); err != nil {
		t.Fatal(err)
	}
	if s.heapMeta[0].seq != 3 {
		t.Errorf("Schedule after Reserve(3) took seq %d, want 3", s.heapMeta[0].seq)
	}
}

func TestScheduleReservedRejectsPast(t *testing.T) {
	var s Simulator
	seq := s.Reserve(1)
	s.Run(10)
	for _, at := range []float64{5, math.NaN()} {
		if err := s.ScheduleReserved(at, seq, func(float64, int32) {}, 0); err != ErrPast {
			t.Errorf("ScheduleReserved(%v) err = %v, want ErrPast", at, err)
		}
	}
	// A rejected call leaves the number reserved.
	if err := s.ScheduleReserved(15, seq, func(float64, int32) {}, 0); err != nil {
		t.Errorf("reserved number unusable after ErrPast: %v", err)
	}
}

func TestScheduleReservedRejectsUnreservedSeq(t *testing.T) {
	var s Simulator
	s.Schedule(1, func(float64, int32) {}, 0) // takes seq 0
	lo := s.Reserve(2)                        // 1 and 2
	s.Schedule(1, func(float64, int32) {}, 0) // takes seq 3
	for _, seq := range []uint64{0, 3, 4, math.MaxUint64} {
		if err := s.ScheduleReserved(2, seq, func(float64, int32) {}, 0); err != ErrNotReserved {
			t.Errorf("ScheduleReserved(seq %d) err = %v, want ErrNotReserved", seq, err)
		}
	}
	if err := s.ScheduleReserved(2, lo, func(float64, int32) {}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleReserved(2, lo, func(float64, int32) {}, 0); err != ErrNotReserved {
		t.Errorf("second use of seq %d: err = %v, want ErrNotReserved", lo, err)
	}
	if s.Pending() != 4 {
		t.Errorf("Pending = %d, want 4", s.Pending())
	}
	checkHeapInvariant(t, &s)
}

func TestResetClearsReservations(t *testing.T) {
	var s Simulator
	lo := s.Reserve(4)
	s.Reset()
	if s.Pending() != 0 {
		t.Errorf("Pending after Reset = %d, want 0", s.Pending())
	}
	if err := s.ScheduleReserved(1, lo, func(float64, int32) {}, 0); err != ErrNotReserved {
		t.Errorf("pre-Reset reservation accepted: err = %v", err)
	}
	if got := s.Reserve(1); got != 0 {
		t.Errorf("Reserve after Reset = %d, want 0", got)
	}
}

// TestReserveSteadyStateAllocs pins the cursor pattern (reserve a batch,
// keep one event of it queued, re-arm from the handler) at zero
// allocations once a recycled simulator's slabs have grown.
func TestReserveSteadyStateAllocs(t *testing.T) {
	const n = 500
	var s Simulator
	var lo uint64
	next := 0
	var h Handler
	h = func(now float64, _ int32) {
		next++
		if next < n {
			s.ScheduleReserved(now+1, lo+uint64(next), h, 0)
		}
	}
	run := func() {
		s.Reset()
		next = 0
		lo = s.Reserve(n)
		s.ScheduleReserved(0, lo, h, 0)
		s.Run(math.Inf(1))
	}
	run()
	if s.Pending() != 0 || s.Fired() != n {
		t.Fatalf("Pending = %d, Fired = %d; want 0, %d", s.Pending(), s.Fired(), n)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("reserved cursor run = %v allocs, want 0", allocs)
	}
}
