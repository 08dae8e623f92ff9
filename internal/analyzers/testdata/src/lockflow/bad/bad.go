// Package bad exercises lockflow: DES heap mutations reachable over
// unlocked call paths that a per-method lexical scan cannot see.
package bad

import (
	"sync"

	"dcnr/internal/des"
)

type Engine struct {
	mu  sync.Mutex
	sim *des.Simulator
}

// Submit is an unlocked entry point: the mutation two calls down runs
// with no lock held anywhere on the path.
func (e *Engine) Submit(h float64) {
	e.helperA(h)
}

func (e *Engine) helperA(h float64) {
	e.helperB(h)
}

// helperB claims its callers lock, but lockflow checks the claim
// against the actual call graph and finds the
// Submit -> helperA -> helperB path holds nothing.
func (e *Engine) helperB(h float64) {
	e.sim.After(h, nil, 0) // caller holds mu
}

// Alias defeats a recv.field.method syntax match entirely:
// the mutation happens through a local copy of the simulator pointer.
func (e *Engine) Alias(h float64) {
	sim := e.sim
	sim.After(h, nil, 0) // type-matched mutation, unlocked
}

// Maybe locks only on one branch; the must-hold join proves the lock is
// not guaranteed at the mutation. A lexical scan is fooled by
// the earlier Lock.
func (e *Engine) Maybe(h float64, lock bool) {
	if lock {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	e.sim.After(h, nil, 0) // unheld on the !lock path
}

// Hooked hands guarded methods out of the call graph's sight.
type Hooked struct {
	mu   sync.Mutex
	sim  *des.Simulator
	hook func(float64)
}

// Arm calls tick under the lock, but also stores it as a method value:
// whoever calls e.hook later holds nothing.
func (e *Hooked) Arm(now float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick(now)
	e.hook = e.tick
}

func (e *Hooked) tick(now float64) {
	e.sim.After(now, nil, 0) // reached through the escaped method value
}

// orphan has no call site, so no caller proves the lock is held.
func (e *Hooked) orphan() {
	e.sim.Reset()
}

// drive is a plain function: it carries no lock state, so step is entered
// unlocked.
func drive(e *Hooked) {
	e.step()
}

func (e *Hooked) step() {
	e.sim.Step()
}

// Outer holds its own mutex while it calls into Inner: that lock is not
// Inner's, so inner.poke is entered unlocked.
type Outer struct {
	mu    sync.Mutex
	sim   *des.Simulator
	inner *Hooked
}

func (o *Outer) Run() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.poke()
}

func (e *Hooked) poke() {
	e.sim.Reset()
}

// Spawn hands flush to a goroutine: that closure is not a DES handler, so
// it runs without the lock Spawn holds.
func (e *Hooked) Spawn() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() { e.flush() }()
}

func (e *Hooked) flush() {
	e.sim.Run(1)
}

// Detach starts flushNow on its own goroutine: the go statement is a call
// on Detach's receiver under Detach's lock, but the new goroutine holds
// nothing.
func (e *Hooked) Detach() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go e.flushNow()
}

func (e *Hooked) flushNow() {
	e.sim.Run(2)
}

// Relay's handler runs on the event loop, but the goroutine it starts does
// not: settle is entered with no lock held.
func (e *Hooked) Relay() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sim.After(1, func(now float64, _ int32) {
		go func() { e.settle() }()
	}, 0)
}

func (e *Hooked) settle() {
	e.sim.Reset()
}
