package core

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
)

// RunLimit runs n independent tasks across a bounded pool of at most
// workers goroutines and waits for all of them. Tasks are claimed in index
// order from a shared counter, so the pool stays busy regardless of how
// task durations vary. workers <= 0 means one worker per CPU, and the pool
// never exceeds runtime.GOMAXPROCS(0): the tasks are CPU-bound, so extra
// goroutines would only time-slice.
//
// Every task runs even when an earlier one fails; the returned error is
// the failing task with the lowest index, which keeps the outcome
// deterministic under concurrency.
func RunLimit(workers, n int, task func(i int) error) error {
	return RunLimitTraced(workers, n, nil, "", nil, task)
}

// RunLimitTraced is RunLimit with per-task telemetry: each task records a
// wall-clock span on tr, named by name(i) (the task index when name is
// nil), with one trace lane (tid) per pool worker — so the trace viewer
// shows the fan-out's actual occupancy, and callers can rebuild wall-time
// accounting from the recorded spans instead of timing tasks themselves.
// A nil tr records nothing and adds no overhead beyond a nil check.
func RunLimitTraced(workers, n int, tr *obs.Tracer, cat string, name func(i int) string, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if tr != nil {
					label := ""
					if name != nil {
						label = name(i)
					}
					if label == "" {
						label = "task " + strconv.Itoa(i)
					}
					sp := tr.BeginOn(w+1, cat, label)
					errs[i] = task(i)
					if errs[i] != nil {
						sp = sp.SetArg("error", errs[i].Error())
					}
					sp.End()
				} else {
					errs[i] = task(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
