// Package sim seeds one violation per analyzer so the end-to-end test can
// assert the driver walks go list packages, type-checks them against the
// dcnr module, and reports every analyzer's findings with exit status 1.
package sim

import (
	"os"
	"sync"
	"time"

	"dcnr/internal/des"
	"dcnr/internal/obs"
	"dcnr/internal/obs/journal"
)

// Scheduler owns a mutex and a simulator but schedules unlocked
// (lockflow) and stamps events with the wall clock (simdeterminism).
type Scheduler struct {
	mu  sync.Mutex
	sim *des.Simulator

	// started holds a metric by value (obsnilsafe).
	started obs.Counter
}

// Kick schedules without the lock and reads the wall clock.
func (s *Scheduler) Kick() {
	s.sim.After(float64(time.Now().Unix()%10), func(float64, int32) {}, 0)
	s.mu.Lock()
	s.started.Inc()
	s.mu.Unlock()
}

// Log stamps a journal record with the wall clock through a local
// (simtaint: the taint flows through stamp's return value into the
// deterministic-output sink Journal.Record).
func (s *Scheduler) Log(l *journal.Journal) {
	rec := journal.Record{Kind: 1, Aux: stamp()}
	l.Record(rec)
}

func stamp() float64 {
	return float64(time.Now().UnixNano())
}

// Dump discards the close error (errchecklite).
func Dump(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	f.Close()
}
