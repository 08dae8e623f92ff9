package timeline

import (
	"io"
	"sync"
	"testing"

	"dcnr/internal/obs"
)

// TestRingWraparoundConcurrentRead checks what the timeline adds on top of
// obs.Lane's publication contract (TestLaneWraparoundConcurrentRead in
// internal/obs): while two lanes' writers wrap their staging buffers,
// concurrent readers always see the lanes merged in time order.
func TestRingWraparoundConcurrentRead(t *testing.T) {
	tl := New()
	even, odd := tl.Column("even"), tl.Column("odd")
	lanes := [2]*Lane{tl.Lane("even"), tl.Lane("odd")}

	const total = obs.LaneBatch*8 + obs.LaneBatch/2 // several wraps plus a partial tail
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := -1.0
				for _, s := range tl.Samples() {
					if s.T < prev {
						t.Errorf("samples out of order: %v after %v", s.T, prev)
						return
					}
					if s.Col != [2]int32{even, odd}[int(s.T)%2] {
						t.Errorf("sample %+v carries the other lane's column", s)
						return
					}
					prev = s.T
				}
				if err := tl.WriteJSONL(io.Discard); err != nil {
					t.Errorf("WriteJSONL: %v", err)
					return
				}
			}
		}()
	}
	// One writer per lane: lane k records the times ≡ k (mod 2).
	for k, l := range lanes {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := k; i < total; i += 2 {
				l.Record([2]int32{even, odd}[k], float64(i), float64(i%7))
			}
			l.Flush()
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := tl.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	// After the final flushes the merge interleaves the lanes exactly.
	for i, s := range tl.Samples() {
		if s.T != float64(i) || s.Col != [2]int32{even, odd}[i%2] {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
}
