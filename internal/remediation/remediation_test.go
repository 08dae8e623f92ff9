package remediation

import (
	"math"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/des"
	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/simrand"
	"dcnr/internal/topology"
)

func newTestEngine() (*Engine, *des.Simulator) {
	sim := &des.Simulator{}
	return NewEngine(sim, simrand.New(7)), sim
}

func TestFaultClassStrings(t *testing.T) {
	for _, c := range FaultClasses {
		if strings.Contains(c.String(), "FaultClass(") {
			t.Errorf("class %d has no name", c)
		}
		if c.Action() == "unknown" {
			t.Errorf("class %d has no action", c)
		}
	}
	if FaultClass(99).Action() != "unknown" {
		t.Error("out-of-range action")
	}
	if !strings.Contains(FaultClass(99).String(), "99") {
		t.Error("out-of-range String")
	}
}

func TestClassSharesMatchPaper(t *testing.T) {
	shares := ClassShares()
	if len(shares) != len(FaultClasses) {
		t.Fatal("shares length mismatch")
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-100) > 0.01 {
		t.Errorf("shares sum = %v, want 100", sum)
	}
	if shares[PortPingFailure] != 50.0 || shares[ConfigBackupFailure] != 32.4 {
		t.Error("§4.1.3 shares wrong")
	}
}

func TestSupported(t *testing.T) {
	for _, dt := range []topology.DeviceType{topology.RSW, topology.FSW, topology.Core} {
		if !Supported(dt) {
			t.Errorf("%v should be supported", dt)
		}
	}
	for _, dt := range []topology.DeviceType{topology.CSA, topology.CSW, topology.ESW, topology.SSW, topology.BBR} {
		if Supported(dt) {
			t.Errorf("%v should not be supported", dt)
		}
	}
}

func TestUnsupportedTypeAlwaysEscalates(t *testing.T) {
	e, sim := newTestEngine()
	escalated := 0
	for i := 0; i < 100; i++ {
		e.SubmitTag(topology.CSA, PortPingFailure, 0, func(_ int32, o Outcome) {
			if !o.Repaired {
				escalated++
			}
			if o.Priority != -1 {
				t.Error("escalated fault has a priority")
			}
		}, 0)
	}
	sim.Run(1000)
	if escalated != 100 {
		t.Errorf("escalated = %d, want 100", escalated)
	}
}

func TestDisabledEngineEscalatesEverything(t *testing.T) {
	e, sim := newTestEngine()
	e.SetEnabled(false)
	if e.Enabled() {
		t.Fatal("SetEnabled(false) ignored")
	}
	repaired := 0
	for i := 0; i < 200; i++ {
		e.SubmitTag(topology.RSW, PortPingFailure, 0, func(_ int32, o Outcome) {
			if o.Repaired {
				repaired++
			}
		}, 0)
	}
	sim.Run(10000)
	if repaired != 0 {
		t.Errorf("disabled engine repaired %d faults", repaired)
	}
}

func TestRepairRatiosMatchTable1(t *testing.T) {
	e, sim := newTestEngine()
	const n = 20000
	for _, dt := range []topology.DeviceType{topology.RSW, topology.FSW, topology.Core} {
		for i := 0; i < n; i++ {
			e.SubmitTag(dt, PortPingFailure, 0, func(int32, Outcome) {}, 0)
		}
	}
	sim.Run(1e9)
	st := e.Stats()
	cases := map[topology.DeviceType]float64{
		topology.RSW:  1 - 1.0/397, // 99.7%
		topology.FSW:  1 - 1.0/214, // 99.5%
		topology.Core: 0.75,
	}
	for dt, want := range cases {
		got := st[dt].RepairRatio()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v repair ratio = %.4f, want ~%.4f", dt, got, want)
		}
		if st[dt].Issues != n {
			t.Errorf("%v issues = %d", dt, st[dt].Issues)
		}
		if st[dt].Repaired+st[dt].Escalated != st[dt].Issues {
			t.Errorf("%v repaired+escalated != issues", dt)
		}
	}
}

func TestPrioritiesMatchTable1(t *testing.T) {
	e, sim := newTestEngine()
	const n = 20000
	for _, dt := range []topology.DeviceType{topology.RSW, topology.FSW, topology.Core} {
		for i := 0; i < n; i++ {
			e.SubmitTag(dt, PortPingFailure, 0, func(int32, Outcome) {}, 0)
		}
	}
	sim.Run(1e9)
	st := e.Stats()
	if got := st[topology.Core].AvgPriority(); got != 0 {
		t.Errorf("Core avg priority = %v, want 0 (highest)", got)
	}
	if got := st[topology.FSW].AvgPriority(); math.Abs(got-2.25) > 0.05 {
		t.Errorf("FSW avg priority = %v, want ~2.25", got)
	}
	if got := st[topology.RSW].AvgPriority(); math.Abs(got-2.22) > 0.05 {
		t.Errorf("RSW avg priority = %v, want ~2.22", got)
	}
}

func TestWaitAndRepairTimesMatchTable1(t *testing.T) {
	e, sim := newTestEngine()
	const n = 20000
	for _, dt := range []topology.DeviceType{topology.RSW, topology.FSW, topology.Core} {
		for i := 0; i < n; i++ {
			e.SubmitTag(dt, PortPingFailure, 0, func(int32, Outcome) {}, 0)
		}
	}
	sim.Run(1e9)
	st := e.Stats()
	// Waits: Core ~4 min, FSW ~3 d, RSW ~1 d.
	if got := st[topology.Core].AvgWaitHours(); math.Abs(got-4.0/60)/(4.0/60) > 0.05 {
		t.Errorf("Core avg wait = %v h, want ~0.0667", got)
	}
	if got := st[topology.FSW].AvgWaitHours(); math.Abs(got-72)/72 > 0.05 {
		t.Errorf("FSW avg wait = %v h, want ~72", got)
	}
	if got := st[topology.RSW].AvgWaitHours(); math.Abs(got-24)/24 > 0.05 {
		t.Errorf("RSW avg wait = %v h, want ~24", got)
	}
	// Repairs: Core ~30.1 s, FSW ~4.45 s, RSW ~2.91 s.
	if got := st[topology.Core].AvgRepairSeconds(); math.Abs(got-30.1)/30.1 > 0.05 {
		t.Errorf("Core avg repair = %v s, want ~30.1", got)
	}
	if got := st[topology.FSW].AvgRepairSeconds(); math.Abs(got-4.45)/4.45 > 0.05 {
		t.Errorf("FSW avg repair = %v s, want ~4.45", got)
	}
	if got := st[topology.RSW].AvgRepairSeconds(); math.Abs(got-2.91)/2.91 > 0.05 {
		t.Errorf("RSW avg repair = %v s, want ~2.91", got)
	}
}

func TestOutcomeTimingOnSimulator(t *testing.T) {
	// The outcome handler for a repaired fault must fire after the wait, as
	// a simulation event — not immediately.
	e, sim := newTestEngine()
	var doneAt float64 = -1
	var wait float64
	e.SubmitTag(topology.Core, PortPingFailure, 0, func(_ int32, o Outcome) {
		if o.Repaired {
			doneAt = sim.Now()
			wait = o.WaitHours
		}
	}, 0)
	sim.Run(1e6)
	if doneAt < 0 {
		t.Skip("fault escalated on this seed")
	}
	if doneAt < wait {
		t.Errorf("done fired at %v, before the %v wait elapsed", doneAt, wait)
	}
}

func TestStatsZeroValue(t *testing.T) {
	var s TypeStats
	if s.RepairRatio() != 0 || s.AvgPriority() != 0 || s.AvgWaitHours() != 0 || s.AvgRepairSeconds() != 0 {
		t.Error("zero stats should yield zero averages")
	}
}

func TestStatsCopySemantics(t *testing.T) {
	e, sim := newTestEngine()
	e.SubmitTag(topology.RSW, PortPingFailure, 0, func(int32, Outcome) {}, 0)
	sim.Run(1e6)
	st := e.Stats()
	s := st[topology.RSW]
	s.Issues = 999
	if e.Stats()[topology.RSW].Issues == 999 {
		t.Error("Stats exposes internal state")
	}
}

func TestStatsConsistentUnderConcurrentSubmit(t *testing.T) {
	// SubmitTag is documented as concurrency-safe: stats, randomness, and the
	// simulator's queue are all guarded by the engine mutex. Hammer it from
	// several goroutines (run under -race via make verify) and assert the
	// per-type accounting stays internally consistent.
	e, sim := newTestEngine()
	const workers = 8
	const per = 500
	types := []topology.DeviceType{topology.RSW, topology.FSW, topology.Core, topology.CSA}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.SubmitTag(types[(w+i)%len(types)], PortPingFailure, 0, func(int32, Outcome) {}, 0)
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	total := 0
	for dt, s := range st {
		if s.Repaired+s.Escalated != s.Issues {
			t.Errorf("%v: repaired %d + escalated %d != issues %d", dt, s.Repaired, s.Escalated, s.Issues)
		}
		if s.Repaired > 0 {
			if s.AvgWaitHours() <= 0 || s.AvgRepairSeconds() <= 0 {
				t.Errorf("%v: non-positive averages with %d repairs", dt, s.Repaired)
			}
			if p := s.AvgPriority(); p < 0 || p > 3 {
				t.Errorf("%v: avg priority %v out of range", dt, p)
			}
		}
		total += s.Issues
	}
	if total != workers*per {
		t.Errorf("issues total = %d, want %d", total, workers*per)
	}
	// Every submission scheduled exactly one outcome event; drain them.
	sim.Run(math.Inf(1))
	if got := sim.Fired(); got != workers*per {
		t.Errorf("outcome events fired = %d, want %d", got, workers*per)
	}
}

func TestInstrumentedEngineCounters(t *testing.T) {
	e, sim := newTestEngine()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	e.Observe(observe.Observe{Metrics: reg, Trace: tr})
	const n = 2000
	for i := 0; i < n; i++ {
		e.SubmitTag(topology.RSW, PortPingFailure, 0, func(int32, Outcome) {}, 0)
	}
	for i := 0; i < 100; i++ {
		e.SubmitTag(topology.CSA, FanFailure, 0, func(int32, Outcome) {}, 0) // unsupported → escalates
	}
	snap := reg.Snapshot()
	if got := snap.Counters["remediation_submitted_total"]; got != n+100 {
		t.Errorf("submitted = %d, want %d", got, n+100)
	}
	rep := snap.Counters["remediation_repaired_total"]
	esc := snap.Counters["remediation_escalated_total"]
	if rep+esc != n+100 {
		t.Errorf("repaired %d + escalated %d != submitted %d", rep, esc, n+100)
	}
	if esc < 100 {
		t.Errorf("escalated = %d, want ≥ 100 (all CSA submissions)", esc)
	}
	st := e.Stats()
	if int64(st[topology.RSW].Repaired) != rep {
		t.Errorf("counter repaired %d != stats repaired %d", rep, st[topology.RSW].Repaired)
	}
	// Queue depth: every repaired fault is in flight until its outcome
	// event fires; afterwards the gauge returns to zero.
	if got := snap.Gauges["remediation_queue_depth"]; got != float64(rep) {
		t.Errorf("queue depth before run = %v, want %d", got, rep)
	}
	sim.Run(math.Inf(1))
	if got := reg.Gauge("remediation_queue_depth").Value(); got != 0 {
		t.Errorf("queue depth after run = %v, want 0", got)
	}
	if got := reg.Histogram("remediation_wait_hours", nil).Count(); got != rep {
		t.Errorf("wait histogram count = %d, want %d", got, rep)
	}
	// Trace: one sim-track span per repair (staged in ring buffers until
	// FlushTrace), one instant per escalation.
	e.FlushTrace()
	spans, instants := 0, 0
	for _, ev := range tr.Events() {
		if ev.PID != obs.SimPID {
			continue
		}
		switch ev.Phase {
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	if int64(spans) != rep || int64(instants) != esc {
		t.Errorf("trace spans %d / instants %d, want %d / %d", spans, instants, rep, esc)
	}
}

// TestSubmitTagSteadyStateAllocs: once the outcome slab and the kernel's
// node pool have grown, a tagged submission and its outcome event
// allocate nothing, whether the fault is repaired or escalated.
func TestSubmitTagSteadyStateAllocs(t *testing.T) {
	e, sim := newTestEngine()
	var repaired, escalated int
	h := func(_ int32, o Outcome) {
		if o.Repaired {
			repaired++
		} else {
			escalated++
		}
	}
	types := []topology.DeviceType{topology.RSW, topology.FSW, topology.Core, topology.CSA}
	batch := func() {
		for i := 0; i < 400; i++ {
			e.SubmitTag(types[i%len(types)], PortPingFailure, 0, h, int32(i))
		}
		for sim.Step() {
		}
	}
	batch() // grows the slab, the node pool and the heap
	// One run of 400 submissions, so a single allocation shows as 1.
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("400 tagged submissions allocated %v times, want 0", allocs)
	}
	if repaired == 0 || escalated == 0 {
		t.Errorf("repaired %d, escalated %d: want both paths driven", repaired, escalated)
	}
}

// TestSubmitTagDeliversTag: SubmitTag's outcomes reach the handler they
// were submitted with, together with their tag, not another submission's
// handler.
func TestSubmitTagDeliversTag(t *testing.T) {
	e, sim := newTestEngine()
	got := map[int32]int{}
	h := func(tag int32, _ Outcome) { got[tag]++ }
	callbacks := 0
	for i := int32(0); i < 50; i++ {
		e.SubmitTag(topology.RSW, PortPingFailure, 0, h, i)
		e.SubmitTag(topology.Core, FanFailure, 0, func(int32, Outcome) { callbacks++ }, 0)
	}
	sim.Run(math.Inf(1))
	if len(got) != 50 || callbacks != 50 {
		t.Fatalf("handler saw %d tags, callbacks %d; want 50 and 50", len(got), callbacks)
	}
	for tag, n := range got {
		if tag < 0 || tag >= 50 || n != 1 {
			t.Errorf("tag %d delivered %d times", tag, n)
		}
	}
}

func BenchmarkSubmitTag(b *testing.B) {
	sim := &des.Simulator{}
	e := NewEngine(sim, simrand.New(1))
	h := func(int32, Outcome) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SubmitTag(topology.RSW, PortPingFailure, 0, h, 0)
	}
	sim.Run(math.Inf(1))
}
