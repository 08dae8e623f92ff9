// Package regression is the seeded-mutation proof for lockflow: the
// exact PR-2 Engine.Submit race, reintroduced two calls deep. Submit
// takes the mutex for its own bookkeeping, releases it, and only then
// walks into a helper chain that mutates the DES heap. The last helper
// is documented "caller holds mu", and the claim is false: the Submit ->
// schedule -> enqueue path holds nothing. The driver test asserts lockflow
// finds exactly one diagnostic, at the Schedule call, and that the
// message names the path.
package regression

import (
	"sync"

	"dcnr/internal/des"
)

type Engine struct {
	mu      sync.Mutex
	sim     *des.Simulator
	pending int
}

func (e *Engine) Submit(at float64) {
	e.mu.Lock()
	e.pending++
	e.mu.Unlock()
	e.schedule(at) // the lock is already gone here
}

func (e *Engine) schedule(at float64) {
	e.enqueue(at)
}

func (e *Engine) enqueue(at float64) {
	e.sim.Schedule(at, nil, 0) // caller holds mu
}
