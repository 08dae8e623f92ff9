// Package good holds the mutex across every simulator mutation, the
// post-PR-2 remediation.Engine discipline.
package good

import (
	"sync"

	"dcnr/internal/des"
)

// Engine owns a mutex and a simulator.
type Engine struct {
	mu    sync.Mutex
	sim   *des.Simulator
	count int
}

// Submit locks before touching the heap; the deferred unlock keeps the
// lock held through the After call.
func (e *Engine) Submit(done func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.count++
	e.sim.After(0, func(float64, int32) { done() }, 0)
}

// Reset locks and unlocks explicitly around the mutations, including the
// pooled kernel's own Reset (a heap mutator since the free-list rewrite).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.sim.Reset()
	e.sim.Reset()
	e.count = 0
	e.mu.Unlock()
}

// scheduleLocked has no call site in the package, so nothing proves its
// callers hold e.mu; the allow directive is the documented escape hatch.
func (e *Engine) scheduleLocked(at float64, h des.Handler) {
	//lint:allow lockflow caller holds e.mu
	e.sim.After(at, h, 0)
}
