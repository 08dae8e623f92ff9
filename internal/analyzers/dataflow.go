package analyzers

// dataflow.go is the generic worklist solver behind the v2 analyzers:
// a monotone dataflow framework over the CFGs built by cfg.go. An
// analyzer supplies the lattice (Join/Equal), the boundary and initial
// facts, and a Transfer function; Solve iterates blocks to a fixpoint and
// returns the fact flowing INTO each block. Analyzers then replay
// Transfer over the solved in-facts to visit each statement with precise
// state (the standard solve-then-report pattern), which keeps reporting
// out of the fixpoint loop.

// Flow defines one monotone dataflow problem, propagated forward (entry
// to exit).
type Flow[F any] struct {
	// Boundary produces the entry block's in-fact.
	Boundary func() F
	// Init produces the starting fact for every other block edge — the
	// lattice bottom for may-analyses, top for must-analyses.
	Init func() F
	// Transfer applies the block's statements to an incoming fact and
	// returns the outgoing fact. It must not mutate its argument.
	Transfer func(*Block, F) F
	// Join combines facts where edges meet. It must not mutate its
	// arguments.
	Join func(F, F) F
	// Equal reports lattice equality; the fixpoint stops when no block's
	// out-fact changes.
	Equal func(F, F) bool
}

// Solve iterates the problem to a fixpoint and returns the in-fact of
// every block: the state on entry to the block.
func Solve[F any](c *CFG, f Flow[F]) map[*Block]F {
	in := make(map[*Block]F, len(c.Blocks))
	out := make(map[*Block]F, len(c.Blocks))
	for _, b := range c.Blocks {
		out[b] = f.Init()
	}

	boundary := c.Blocks[0]

	// Worklist seeded with every block so unreachable code is still
	// transferred once (reporting passes want to see dead statements).
	work := make([]*Block, len(c.Blocks))
	copy(work, c.Blocks)
	queued := make([]bool, len(c.Blocks))
	for i := range queued {
		queued[i] = true
	}
	pop := func() *Block {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		return b
	}
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			work = append(work, b)
		}
	}

	for len(work) > 0 {
		b := pop()
		fact := f.Init()
		if b == boundary {
			fact = f.Join(fact, f.Boundary())
		}
		for _, p := range b.Preds {
			fact = f.Join(fact, out[p])
		}
		in[b] = fact
		next := f.Transfer(b, fact)
		if !f.Equal(next, out[b]) {
			out[b] = next
			for _, s := range b.Succs {
				push(s)
			}
		}
	}
	return in
}
