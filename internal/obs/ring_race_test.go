package obs

import (
	"io"
	"slices"
	"sync"
	"testing"
)

// laneRec is a self-checking record: a torn or rewritten value breaks
// sq == i*i.
type laneRec struct{ i, sq int64 }

// TestLaneWraparoundConcurrentRead pins the publication contract every
// batched recorder (SpanRing and the one ring each journal.Journal and
// timeline.Timeline owns) inherits from Lane. One writer drives a lane through several staging-buffer
// wraparounds and a partial tail while readers snapshot it. Every
// snapshot must be a whole-record prefix of the recording, a mid-run
// snapshot must still hold the same values after the writer has reused
// the staging array many times (published blocks are copies, never the
// array itself), and Len must count exactly what Blocks returns. Run
// under -race this also proves readers never touch the staging array.
func TestLaneWraparoundConcurrentRead(t *testing.T) {
	var l Lane[laneRec]
	if blk := l.Flush(); blk != nil {
		t.Fatalf("Flush with nothing staged = %v, want nil", blk)
	}

	const total = 3*LaneBatch + 17 // several wraparounds plus a partial tail
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := int64(0); i < total; i++ {
			if l.Record(laneRec{i, i * i}) {
				if blk := l.Flush(); len(blk) != LaneBatch {
					t.Errorf("full Flush published %d records, want %d", len(blk), LaneBatch)
				}
			}
		}
		if blk := l.Flush(); len(blk) != total%LaneBatch || blk[len(blk)-1].i != total-1 {
			t.Errorf("tail Flush = %d records, want the last %d", len(blk), total%LaneBatch)
		}
	}()

	var snapshot [][]laneRec // a mid-run Blocks result, kept as returned
	var snapCopy []laneRec   // its values at the time it was taken
	for loop := true; loop; {
		select {
		case <-done:
			loop = false
		default:
		}
		blocks := l.Blocks()
		n := 0
		for _, blk := range blocks {
			for _, r := range blk {
				if r.i != int64(n) || r.sq != r.i*r.i {
					t.Fatalf("snapshot record %d = %+v: not a prefix of the recording", n, r)
				}
				n++
			}
		}
		if got := l.Len(); got < n {
			t.Fatalf("Len = %d after Blocks held %d records", got, n)
		}
		if snapshot == nil && len(blocks) > 0 {
			snapshot, snapCopy = blocks, slices.Concat(blocks...)
		}
	}
	wg.Wait()

	final := l.Blocks()
	if len(final) != total/LaneBatch+1 {
		t.Fatalf("published %d blocks, want %d", len(final), total/LaneBatch+1)
	}
	if got := l.Len(); got != total || len(slices.Concat(final...)) != total {
		t.Fatalf("Len = %d, Blocks hold %d records, want %d", got, len(slices.Concat(final...)), total)
	}
	if snapshot == nil { // the writer finished before any reader looked
		snapshot, snapCopy = final, slices.Concat(final...)
	}
	if got := slices.Concat(snapshot...); !slices.Equal(got, snapCopy) {
		t.Fatal("a published block changed after it was read")
	}
	if !slices.Equal(snapCopy, slices.Concat(final...)[:len(snapCopy)]) {
		t.Fatal("mid-run snapshot is not a prefix of the final recording")
	}
}

// TestSpanRingWraparoundUnderFork checks what SpanRing adds on top of
// Lane while readers serialize the tracer: per-record names resolve
// through the name table across flushes, and a forked tracer's ring,
// recording concurrently, stays independent of its parent.
func TestSpanRingWraparoundUnderFork(t *testing.T) {
	tr := NewTracer()
	ring := tr.Ring(WallPID, 1, "test", "hot", "v").SetNames("even", "odd")

	const total = 3*LaneBatch + 17 // several wraparounds plus a partial batch

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			ring.Record(int32(i%2), float64(i), 1, float64(i), 0, 0)
		}
		ring.Flush()
	}()

	// Fork writer: forks share only the wall-clock origin, never ring
	// state.
	fork := tr.Fork()
	fring := fork.Ring(WallPID, 2, "test", "forked", "v")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < LaneBatch+5; i++ {
			fring.Record(-1, float64(i), 1, float64(i), 0, 0)
		}
		fring.Flush()
	}()

	for loop := true; loop; {
		select {
		case <-done:
			loop = false
		default:
		}
		for _, e := range tr.Events() {
			if e.Args["v"] != e.TS {
				t.Fatalf("record torn or rewritten under reader: ts=%v v=%v", e.TS, e.Args["v"])
			}
		}
		if err := tr.WriteJSON(io.Discard); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
	}
	wg.Wait()

	final := tr.Events()
	if len(final) != total {
		t.Fatalf("final trace has %d records, want %d", len(final), total)
	}
	for i, e := range final {
		if want := [2]string{"even", "odd"}[i%2]; e.Name != want {
			t.Fatalf("record %d named %q, want %q: name table lost across flushes", i, e.Name, want)
		}
	}
	if fork.Len() != LaneBatch+5 {
		t.Errorf("fork recorded %d spans, want %d", fork.Len(), LaneBatch+5)
	}
	if tr.Len() != total {
		t.Errorf("fork leaked into parent: parent has %d spans, want %d", tr.Len(), total)
	}
}
