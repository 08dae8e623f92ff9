package timeline

import (
	"io"
	"sync"
	"testing"

	"dcnr/internal/obs"
)

// TestRingWraparoundConcurrentRead checks what the timeline adds on top of
// obs.Lane's publication contract (TestLaneWraparoundConcurrentRead in
// internal/obs): while the writer wraps the staging buffer, concurrent
// readers always see a prefix of the samples in recording order.
func TestRingWraparoundConcurrentRead(t *testing.T) {
	tl := New()
	even, odd := tl.Column("even"), tl.Column("odd")
	cols := [2]int32{even, odd}

	const total = obs.LaneBatch*8 + obs.LaneBatch/2 // several wraps plus a partial tail
	var readers sync.WaitGroup
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
				for i, s := range tl.Samples() {
					if s.T != float64(i) || s.Col != cols[i%2] {
						t.Errorf("sample %d = %+v, not a prefix of the recording", i, s)
						return
					}
				}
				if err := tl.WriteJSONL(io.Discard); err != nil {
					t.Errorf("WriteJSONL: %v", err)
					return
				}
			}
		}()
	}
	// The one writer alternates the two columns.
	for i := 0; i < total; i++ {
		tl.Record(cols[i%2], float64(i), float64(i%7))
	}
	tl.Flush()
	close(stop)
	readers.Wait()

	if got := tl.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	for i, s := range tl.Samples() {
		if s.T != float64(i) || s.Col != cols[i%2] {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
}
