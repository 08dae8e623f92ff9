// Package bad mutates a shared des.Simulator outside the owning mutex —
// the race class lockflow exists to catch.
package bad

import (
	"sync"

	"dcnr/internal/des"
)

// Engine owns a mutex and a simulator, so every heap mutation in its
// methods must hold the mutex.
type Engine struct {
	mu    sync.Mutex
	sim   *des.Simulator
	count int
}

// Submit schedules before taking the lock: concurrent submitters race
// inside container/heap.
func (e *Engine) Submit(done func()) {
	e.sim.After(0, func(float64, int32) { done() }, 0)
	e.mu.Lock()
	e.count++
	e.mu.Unlock()
}

// Drain releases the lock and then runs the simulator.
func (e *Engine) Drain() {
	e.mu.Lock()
	e.count = 0
	e.mu.Unlock()
	e.sim.Run(24)
}

// Recycle resets the pooled kernel without the lock: a racing Reset
// corrupts the free list, not just the heap.
func (e *Engine) Recycle() {
	e.sim.Reset()
}

// Batch reserves sequence numbers and queues one under them without the
// lock: both calls move the pending count, and the second touches the heap.
func (e *Engine) Batch(at float64, h des.Handler) {
	seq := e.sim.Reserve(1)
	e.sim.ScheduleReserved(at, seq, h, 0)
}
