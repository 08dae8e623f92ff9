// Package good is the clean counterpart of lockflow/bad: every path to a
// heap mutation holds the mutex, and event-loop closures are exempt.
package good

import (
	"sync"

	"dcnr/internal/des"
)

type Engine struct {
	mu  sync.Mutex
	sim *des.Simulator
}

// Submit locks at the entry point; the helper's "caller holds mu" claim
// is true for every caller, so lockflow stays silent where a per-method
// lexical scan would flag the helper.
func (e *Engine) Submit(h float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.submitLocked(h)
}

// Resubmit shares the helper; it locks too.
func (e *Engine) Resubmit(h float64) {
	e.mu.Lock()
	e.submitLocked(h)
	e.mu.Unlock()
}

func (e *Engine) submitLocked(h float64) {
	e.sim.After(h, nil, 0) // caller holds mu
}

// Arm schedules a periodic handler; the closure body runs on the
// single-threaded DES event loop, so its re-arm needs no mutex and its
// callee is reached only through closure edges.
func (e *Engine) Arm(h float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sim.After(h, func(now float64, _ int32) {
		e.tick(now)
	}, 0)
}

// tick is called only from the event-loop closure: exempt by convention.
func (e *Engine) tick(now float64) {
	e.sim.After(1, nil, 0) // event-loop context
}

// Rearm hands handle to the kernel as a method value: like a closure, the
// handler runs on the event loop, so it is neither an escape nor an
// uncalled method.
func (e *Engine) Rearm(h float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sim.After(h, e.handle, 0)
}

func (e *Engine) handle(now float64, _ int32) {
	e.sim.After(now+1, nil, 0)
}

// Spawn starts drain on its own goroutine; drain takes the lock itself.
func (e *Engine) Spawn() {
	go e.drain()
}

func (e *Engine) drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sim.Run(1)
}
