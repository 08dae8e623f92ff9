package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcnr/internal/obs"
)

func TestRunLimitRunsEveryTask(t *testing.T) {
	const n = 100
	done := make([]int32, n)
	if err := RunLimit(4, n, func(i int) error {
		atomic.AddInt32(&done[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range done {
		if c != 1 {
			t.Errorf("task %d ran %d times", i, c)
		}
	}
}

func TestRunLimitBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 64
	var cur, peak int32
	var mu sync.Mutex
	err := RunLimit(workers, n, func(int) error {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		defer atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("observed %d concurrent tasks, limit %d", peak, workers)
	}
}

// The returned error is the failing task with the lowest index, and later
// tasks still run — deterministic outcome, full coverage.
func TestRunLimitFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var ran int32
	err := RunLimit(8, 20, func(i int) error {
		atomic.AddInt32(&ran, 1)
		switch i {
		case 13:
			return errB
		case 5:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Errorf("err = %v, want task 5's error", err)
	}
	if ran != 20 {
		t.Errorf("%d tasks ran, want all 20", ran)
	}
}

func TestRunLimitTracedRecordsPerTaskSpans(t *testing.T) {
	tr := obs.NewTracer()
	const workers, n = 3, 17
	failing := errors.New("task 4 boom")
	err := RunLimitTraced(workers, n, tr, "analysis",
		func(i int) string { return fmt.Sprintf("exp%02d", i) },
		func(i int) error {
			if i == 4 {
				return failing
			}
			return nil
		})
	if err != failing {
		t.Fatalf("err = %v, want the failing task's error", err)
	}
	evs := tr.Events()
	if len(evs) != n {
		t.Fatalf("spans = %d, want %d", len(evs), n)
	}
	seen := make(map[string]bool)
	for _, e := range evs {
		if e.Phase != "X" || e.Cat != "analysis" {
			t.Errorf("bad span %+v", e)
		}
		if e.TID < 1 || e.TID > workers {
			t.Errorf("span lane %d outside worker pool [1, %d]", e.TID, workers)
		}
		seen[e.Name] = true
		if e.Name == "exp04" && e.Args["error"] == nil {
			t.Error("failing task's span missing error arg")
		}
	}
	for i := 0; i < n; i++ {
		if name := fmt.Sprintf("exp%02d", i); !seen[name] {
			t.Errorf("no span for %s", name)
		}
	}
	// nil name function falls back to index labels.
	tr2 := obs.NewTracer()
	if err := RunLimitTraced(2, 2, tr2, "c", nil, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range tr2.Events() {
		names[e.Name] = true
	}
	if !names["task 0"] || !names["task 1"] {
		t.Errorf("fallback labels wrong: %v", names)
	}
}

func TestRunLimitEdgeCases(t *testing.T) {
	if err := RunLimit(4, 0, func(int) error { t.Error("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	// workers <= 0 defaults to GOMAXPROCS; workers > n is clamped.
	var ran int32
	if err := RunLimit(0, 3, func(int) error { atomic.AddInt32(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("ran = %d, want 3", ran)
	}
	ran = 0
	if err := RunLimit(100, 2, func(int) error { atomic.AddInt32(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

// Under GOMAXPROCS(1) the pool clamps to one worker whatever is asked for:
// tasks run one at a time, in index order, on lane 1, and the lowest-index
// error still wins.
func TestRunLimitUnderOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{0, 1, 4} {
		var order []int
		tr := obs.NewTracer()
		err := RunLimitTraced(workers, 10, tr, "c", nil, func(i int) error {
			order = append(order, i) // unsynchronized: safe with one worker
			switch i {
			case 7:
				return errB
			case 3:
				return errA
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want task 3's error", workers, err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: run order %v, want index order", workers, order)
			}
		}
		if len(order) != 10 {
			t.Errorf("workers=%d: %d tasks ran, want 10", workers, len(order))
		}
		evs := tr.Events()
		if len(evs) != 10 {
			t.Fatalf("workers=%d: spans = %d, want 10", workers, len(evs))
		}
		for _, e := range evs {
			if e.TID != 1 {
				t.Errorf("workers=%d: span %s on lane %d, want lane 1", workers, e.Name, e.TID)
			}
		}
	}
}

// The pool never runs more tasks at once than GOMAXPROCS allows.
func TestRunLimitClampsToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var cur, peak atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	done := make(chan error)
	go func() {
		done <- RunLimit(8, 16, func(int) error {
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			started <- struct{}{}
			<-release
			cur.Add(-1)
			return nil
		})
	}()
	// Two tasks start and block; a third worker would start a third.
	<-started
	<-started
	select {
	case <-started:
		t.Error("a third task started while two blocked: pool not clamped to GOMAXPROCS(2)")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d, want <= GOMAXPROCS 2", p)
	}
}
