// Package regression preserves the exact pre-PR-2 shape of
// remediation.Engine.Submit: statistics were updated under the mutex, the
// mutex released, and only then was the outcome event scheduled — so two
// concurrent Submit calls raced inside container/heap on the simulator's
// event queue. The lockflow analyzer flags this statically;
// remediation.TestStatsConsistentUnderConcurrentSubmit (run under
// -race in the tier-1 gate) is the dynamic guard on the real engine.
package regression

import (
	"sync"

	"dcnr/internal/des"
)

// Engine mirrors remediation.Engine: a mutex-owning struct sharing one
// des.Simulator across submitting goroutines.
type Engine struct {
	mu     sync.Mutex
	sim    *des.Simulator
	issues int
}

// Submit is the buggy pre-fix shape: the event heap is mutated after the
// lock is released.
func (e *Engine) Submit(done func()) {
	e.mu.Lock()
	e.issues++
	e.mu.Unlock()
	e.sim.After(0, func(float64, int32) { done() }, 0)
}
