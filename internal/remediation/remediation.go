// Package remediation implements the automated repair system of §4.1: the
// software that shields the fleet from the vast majority of device issues.
//
// A detected fault is submitted to the Engine, which decides whether
// automation can handle it. Supported device types (RSWs and FSWs fully,
// Core devices partially — Facebook's own software stack is not pervasive
// there) get a repair scheduled: the engine assigns a priority from 0
// (highest) to 3 (lowest), the repair waits in the queue according to its
// priority and the device type's backlog, then executes in seconds. Faults
// automation cannot fix escalate to humans and become network incidents —
// exactly the population the paper's intra-DC study analyzes (§4.1.3).
package remediation

import (
	"fmt"
	"log/slog"

	"dcnr/internal/des"
	"dcnr/internal/obs"
	"dcnr/internal/obs/journal"
	"dcnr/internal/observe"
	"dcnr/internal/simrand"
	"dcnr/internal/topology"
)

// FaultClass is the taxonomy of device issues §4.1.3 reports, with its
// observed remediation shares.
type FaultClass int

const (
	// PortPingFailure is an unresponsive device port (50% of
	// remediations), repaired by turning the port off and on again.
	PortPingFailure FaultClass = iota
	// ConfigBackupFailure is a configuration file backup failure (32.4%),
	// repaired by restarting the configuration service and reestablishing
	// a secure shell connection.
	ConfigBackupFailure
	// FanFailure is a failed fan (4.5%); automation extracts failure
	// details and alerts a technician.
	FanFailure
	// DevicePingFailure means the liveness monitor cannot ping the device
	// (4.0%); automation collects details and assigns a technician task.
	DevicePingFailure
	// OtherFailure covers the remaining 9.1% of issue types.
	OtherFailure

	numFaultClasses = int(OtherFailure) + 1
)

// FaultClasses lists every fault class.
var FaultClasses = []FaultClass{PortPingFailure, ConfigBackupFailure, FanFailure, DevicePingFailure, OtherFailure}

// ClassShares returns the observed share of each fault class among
// remediations (§4.1.3), usable as weights for a categorical draw.
func ClassShares() []float64 { return []float64{50.0, 32.4, 4.5, 4.0, 9.1} }

var faultClassNames = [numFaultClasses]string{
	"port ping failure",
	"configuration backup failure",
	"fan failure",
	"device ping failure",
	"other failure",
}

var faultClassActions = [numFaultClasses]string{
	"turn the port off and on again",
	"restart the configuration service and reestablish a secure shell connection",
	"extract failure details and alert a technician to examine the faulty fan",
	"collect details about the device and assign a task to a technician",
	"run device triage playbook",
}

// String names the fault class.
func (c FaultClass) String() string {
	if c < 0 || int(c) >= numFaultClasses {
		return fmt.Sprintf("FaultClass(%d)", int(c))
	}
	return faultClassNames[c]
}

// Action describes the automated repair applied for this class.
func (c FaultClass) Action() string {
	if c < 0 || int(c) >= numFaultClasses {
		return "unknown"
	}
	return faultClassActions[c]
}

// policy captures a device type's remediation behaviour, calibrated to
// Table 1 and §4.1.2.
type policy struct {
	supported bool
	// escalate is the probability automation cannot fix an issue (1 -
	// repair ratio): Core 1/4, FSW 1/214, RSW 1/397.
	escalate float64
	// priorityWeights gives the categorical distribution over priorities
	// 0..3.
	priorityWeights []float64
	// meanWaitHours is the average queueing delay before the repair runs.
	meanWaitHours float64
	// meanRepairSeconds is the average execution time of the repair.
	meanRepairSeconds float64
}

// numTypes sizes the per-type tables; BBR is the last topology.DeviceType.
const numTypes = int(topology.BBR) + 1

// policies is indexed by device type; a type without an entry is
// unsupported.
var policies = [numTypes]policy{
	// Core repairs are always priority 0 and wait ~4 minutes; only 75% of
	// issues are automatable because most Cores run vendor firmware.
	topology.Core: {
		supported:         true,
		escalate:          1.0 / 4,
		priorityWeights:   []float64{1, 0, 0, 0},
		meanWaitHours:     4.0 / 60,
		meanRepairSeconds: 30.1,
	},
	// FSW: average priority 2.25, wait ~3 days, repair 4.45 s.
	topology.FSW: {
		supported:         true,
		escalate:          1.0 / 214,
		priorityWeights:   []float64{5, 10, 40, 45},
		meanWaitHours:     72,
		meanRepairSeconds: 4.45,
	},
	// RSW: average priority 2.22, wait ~1 day, repair 2.91 s.
	topology.RSW: {
		supported:         true,
		escalate:          1.0 / 397,
		priorityWeights:   []float64{5, 10, 43, 42},
		meanWaitHours:     24,
		meanRepairSeconds: 2.91,
	},
}

// Supported reports whether automated remediation covers the device type
// (§4.1.2: RSWs, FSWs, and some Core devices).
func Supported(t topology.DeviceType) bool {
	return t >= 0 && int(t) < numTypes && policies[t].supported
}

// Outcome reports what the engine did with a submitted fault.
type Outcome struct {
	// Repaired is true when automation fixed the issue; false means the
	// fault escalated to a human and becomes a network incident.
	Repaired bool
	// Priority is the assigned repair priority, 0 (highest) to 3
	// (lowest); -1 when the fault escalated without a repair attempt.
	Priority int
	// WaitHours is the time the repair waited in the queue.
	WaitHours float64
	// RepairSeconds is the repair's execution time.
	RepairSeconds float64
	// Action describes the repair that ran.
	Action string
	// Journal is the causal ID of the engine's terminal journal record
	// for this fault — the Repaired record for automated fixes, the
	// Escalated record otherwise — so the caller can parent follow-up
	// records (an incident) on it. 0 when the engine has no journal.
	Journal journal.ID
}

// TypeStats aggregates Table 1's per-device-type columns.
type TypeStats struct {
	Issues           int
	Repaired         int
	Escalated        int
	sumPriority      float64
	sumWaitHours     float64
	sumRepairSeconds float64
	prioritizedCount int
}

// RepairRatio is the fraction of issues automation fixed.
func (s TypeStats) RepairRatio() float64 {
	if s.Issues == 0 {
		return 0
	}
	return float64(s.Repaired) / float64(s.Issues)
}

// AvgPriority is the mean assigned priority among attempted repairs.
func (s TypeStats) AvgPriority() float64 {
	if s.prioritizedCount == 0 {
		return 0
	}
	return s.sumPriority / float64(s.prioritizedCount)
}

// AvgWaitHours is the mean queueing delay among attempted repairs.
func (s TypeStats) AvgWaitHours() float64 {
	if s.prioritizedCount == 0 {
		return 0
	}
	return s.sumWaitHours / float64(s.prioritizedCount)
}

// AvgRepairSeconds is the mean repair execution time.
func (s TypeStats) AvgRepairSeconds() float64 {
	if s.prioritizedCount == 0 {
		return 0
	}
	return s.sumRepairSeconds / float64(s.prioritizedCount)
}

// Engine is the automated repair system. It is driven by a des.Simulator:
// SubmitTag schedules the repair's wait and execution as simulation events.
// Its metrics, trace spans, journal records and logs attach in one call to
// Observe.
//
// Like the des.Simulator it schedules on, an Engine is confined to one
// goroutine: SubmitTag and the outcome events it queues read and write
// its statistics, randomness, outcome slab and trace rings without locks,
// so every method must run on the simulator's goroutine (or before or
// after the simulation, with a happens-before edge to it).
type Engine struct {
	sim     *des.Simulator
	rng     *simrand.Stream
	enabled bool
	stats   [numTypes]TypeStats

	// Telemetry, attached by Observe; nil fields are no-ops.
	mSubmitted *obs.Counter
	mRepaired  *obs.Counter
	mEscalated *obs.Counter
	gQueue     *obs.Gauge
	hWait      *obs.Histogram
	hRepair    *obs.Histogram
	tracer     *obs.Tracer
	// rings holds one batched span recorder per supported device type
	// (nil for the others, and for all without a tracer). Repairs are by
	// far the most frequent trace record the whole simulation produces
	// (~one per fault), so the hot path stages 48-byte records instead of
	// building an args map and taking the tracer lock each time. The
	// engine's one goroutine is the rings' single writer; FlushTrace
	// publishes the tails.
	rings  [numTypes]*obs.SpanRing
	logger *slog.Logger
	// jnl is the run's causal journal: ticket-cut, dispatch, escalation,
	// and repair records, parented on the IDs callers pass to SubmitTag.
	// The journal is single-writer and shared with the caller that
	// parents these records, so with one attached every SubmitTag runs on
	// the simulator goroutine; a nil journal is a no-op.
	jnl *journal.Journal

	// The outcome slab. Each submission takes a slot (from free, or by
	// growing slots) holding its outcome and its recipient, and queues
	// one event carrying the slot's index; fire (fireOutcome, bound once
	// by NewEngine) frees the slot and delivers the outcome.
	// At steady state a submission therefore allocates nothing.
	slots []outcomeSlot
	free  []int32
	fire  des.Handler
}

// outcomeSlot is one pending outcome, its handler and the tag the
// handler gets it with.
type outcomeSlot struct {
	out Outcome
	tag int32
	h   func(tag int32, o Outcome)
}

// NewEngine returns an enabled Engine drawing randomness from rng and
// scheduling on sim.
func NewEngine(sim *des.Simulator, rng *simrand.Stream) *Engine {
	e := &Engine{
		sim:     sim,
		rng:     rng,
		enabled: true,
	}
	e.fire = e.fireOutcome
	return e
}

// Observe attaches a run's telemetry to the engine; it reads o's Metrics,
// Trace, Journal and Logger. Metrics registered on o.Metrics:
// remediation_submitted_total, remediation_repaired_total, and
// remediation_escalated_total (counters — escalated/submitted is the
// escalation ratio), remediation_queue_depth (gauge of repairs currently
// waiting or executing), and the remediation_wait_hours /
// remediation_repair_seconds histograms. With o.Trace each automated
// repair records a submit→outcome span on the simulation-time track (one
// lane per device type) and each escalation an instant marker. With
// o.Journal every submission records a ticket-cut entry parented on the
// cause ID passed to SubmitTag, then either a dispatched→repaired pair or
// an escalated record; the caller records the cause in the same journal.
// With o.Logger escalations log at debug with the simulation clock
// (incidents themselves are logged upstream by the faults driver, so info
// stays readable). Repair spans are staged; call FlushTrace before
// reading the trace. The journal's owner flushes the journal (the faults
// driver does at the end of Run). Nil fields are no-ops. Call once,
// before the simulation runs.
func (e *Engine) Observe(o observe.Observe) {
	if reg := o.Metrics; reg != nil {
		e.mSubmitted = reg.Counter("remediation_submitted_total")
		e.mRepaired = reg.Counter("remediation_repaired_total")
		e.mEscalated = reg.Counter("remediation_escalated_total")
		e.gQueue = reg.Gauge("remediation_queue_depth")
		e.hWait = reg.Histogram("remediation_wait_hours",
			[]float64{0.05, 0.25, 1, 6, 24, 72, 168, 336})
		e.hRepair = reg.Histogram("remediation_repair_seconds",
			[]float64{1, 2, 5, 10, 30, 60, 120, 300})
	}
	if tr := o.Trace; tr != nil {
		e.tracer = tr
		for t := topology.DeviceType(0); int(t) < numTypes; t++ {
			if !policies[t].supported {
				continue
			}
			// The device type is carried by the lane, named once via
			// thread_name metadata, rather than repeated as an arg on
			// each of tens of thousands of repair spans.
			tr.Emit(obs.Event{Name: "thread_name", Phase: "M",
				PID: obs.SimPID, TID: int(t) + 1,
				Args: map[string]any{"name": t.String() + " remediation"}})
			e.rings[t] = tr.Ring(obs.SimPID, int(t)+1, "remediation", "repair",
				"priority", "wait_hours", "repair_seconds").
				SetNames(faultClassNames[:]...)
		}
	}
	e.jnl = o.Journal
	e.logger = o.Logger
}

// FlushTrace publishes any repair spans still staged in the engine's ring
// buffers to the tracer. Call after the simulation finishes, before the
// trace is read or written; the faults driver does this at the end of
// Run.
func (e *Engine) FlushTrace() {
	for _, r := range e.rings {
		r.Flush()
	}
}

// SetEnabled turns the engine on or off. A disabled engine escalates every
// fault — the §5.6 ablation.
func (e *Engine) SetEnabled(v bool) { e.enabled = v }

// Enabled reports whether automation is active.
func (e *Engine) Enabled() bool { return e.enabled }

// SubmitTag hands a detected fault on a device of type t to the engine.
// The outcome goes to h together with tag (typically the fault's index in
// the caller's slab) as a simulation event once it is known: immediately
// for escalations, after wait+repair for automated fixes. A caller that
// binds h once allocates nothing per fault. cause is the journal ID of
// the record that led to this submission (the fault's detection record),
// and becomes the parent of the ticket-cut entry the engine journals;
// with no journal attached — or a zero cause — the records are simply not
// written. Like every Engine method, SubmitTag runs on the simulator's
// goroutine, which is also the one that records the causes in the
// single-writer journal.
//
//hot:noalloc
func (e *Engine) SubmitTag(t topology.DeviceType, class FaultClass, cause journal.ID, h func(tag int32, o Outcome), tag int32) {
	st := &e.stats[t]
	st.Issues++
	e.mSubmitted.Inc()
	now := e.sim.Now()
	ticket := e.jnl.Record(journal.Record{
		Kind: journal.TicketCut, Parent: cause, Time: now,
		Dev: uint8(t), Class: int8(class), Sev: -1,
	})

	pol := policies[t]
	if !e.enabled || !pol.supported || e.rng.Bool(pol.escalate) {
		st.Escalated++
		e.mEscalated.Inc()
		esc := e.jnl.Record(journal.Record{
			Kind: journal.Escalated, Parent: ticket, Time: now,
			Dev: uint8(t), Class: int8(class), Sev: -1,
		})
		if e.logger != nil || e.tracer != nil {
			e.noteEscalation(t, class)
		}
		e.queueOutcome(0, Outcome{Repaired: false, Priority: -1, Journal: esc}, h, tag)
		return
	}

	priority := e.rng.Weighted(pol.priorityWeights)
	wait := e.rng.Exp(pol.meanWaitHours)
	// LogNormal(-σ²/2, σ) has mean exactly 1, so the repair-time average
	// matches the policy's calibrated mean.
	repairSec := e.rng.LogNormal(-0.125, 0.5) * pol.meanRepairSeconds
	st.Repaired++
	st.prioritizedCount++
	st.sumPriority += float64(priority)
	st.sumWaitHours += wait
	st.sumRepairSeconds += repairSec
	e.mRepaired.Inc()
	e.hWait.Observe(wait)
	e.hRepair.Observe(repairSec)
	e.gQueue.Add(1)
	e.rings[t].Record(int32(class), obs.SimMicros(e.sim.Now()),
		obs.SimMicros(wait+repairSec/3600),
		float64(priority), wait, repairSec)
	// Journal the rest of the lifecycle up front: the dispatch and repair
	// times are already decided, and recording both here (rather than
	// inside the completion event) issues every ID of the chain before
	// SubmitTag returns. The JSONL output is ID-ordered, so the
	// future-timestamped repair record lands in causal order regardless.
	disp := e.jnl.Record(journal.Record{
		Kind: journal.Dispatched, Parent: ticket, Time: now + wait, Aux: wait,
		Dev: uint8(t), Class: int8(class), Sev: -1,
	})
	rep := e.jnl.Record(journal.Record{
		Kind: journal.Repaired, Parent: disp, Time: now + wait + repairSec/3600, Aux: repairSec,
		Dev: uint8(t), Class: int8(class), Sev: -1,
	})

	out := Outcome{
		Repaired:      true,
		Priority:      priority,
		WaitHours:     wait,
		RepairSeconds: repairSec,
		Action:        class.Action(),
		Journal:       rep,
	}
	e.queueOutcome(wait+repairSec/3600, out, h, tag)
}

// noteEscalation logs and traces an escalation. Kept outside the
// submission's hot path: slog attributes and the trace instant's args
// allocate, and it runs only with a logger or tracer attached.
func (e *Engine) noteEscalation(t topology.DeviceType, class FaultClass) {
	if e.logger != nil {
		e.logger.Debug("repair escalated",
			slog.String("device_type", t.String()),
			slog.String("class", class.String()),
			obs.SimHours(e.sim.Now()))
	}
	if e.tracer != nil {
		e.tracer.SimInstant(int(t)+1, "remediation", "escalated: "+class.String(),
			e.sim.Now(), map[string]any{"device_type": t.String()})
	}
}

// queueOutcome stores out, h and tag in a free slot of the outcome slab
// and queues the event that delivers the outcome delay hours from now.
//
//hot:noalloc
func (e *Engine) queueOutcome(delay float64, out Outcome, h func(int32, Outcome), tag int32) {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, outcomeSlot{})
		slot = int32(len(e.slots) - 1)
	}
	e.slots[slot] = outcomeSlot{out: out, tag: tag, h: h}
	e.sim.After(delay, e.fire, slot)
}

// fireOutcome is the outcome event's handler: it frees the slot, takes a
// repair off the queue-depth gauge, and delivers the outcome with its tag
// to the slot's handler. The slot is read and freed before the handler
// runs, so the handler may submit again and reuse it.
//
//hot:noalloc
func (e *Engine) fireOutcome(_ float64, slot int32) {
	sl := &e.slots[slot]
	out, tag, h := sl.out, sl.tag, sl.h
	sl.h = nil
	e.free = append(e.free, slot)
	if out.Repaired {
		e.gQueue.Add(-1)
	}
	h(tag, out)
}

// Stats returns a copy of the per-type statistics accumulated so far,
// with an entry for each device type that has had a submission.
func (e *Engine) Stats() map[topology.DeviceType]TypeStats {
	out := make(map[topology.DeviceType]TypeStats)
	for t, s := range e.stats {
		if s.Issues > 0 {
			out[topology.DeviceType(t)] = s
		}
	}
	return out
}
