// Package health is a streaming SLO evaluation engine over the simulated
// operational history. It consumes the event stream the simulation already
// produces — device faults, escalated incidents, repairs — and continuously judges it against calibration targets: the
// expected incident volumes, resolution-time percentiles, and populations
// that package faults uses to shape the generator. On top of the live
// signals sits a declarative alert-rule layer with SRE-style multi-window
// error-budget burn rates and a pending→firing→resolved state machine whose
// transitions are notified, logged with simulation timestamps, and counted
// in obs metrics.
//
// The engine is deliberately decoupled from the generator: package faults
// imports health (to feed it and to derive Targets from its calibration
// tables), never the reverse. Per-type state and targets are arrays
// indexed by topology.DeviceType; type names appear only at the edges, in
// Rule.Type and in the report's Types map. Beyond the standard library the
// package depends only on internal/obs and the topology type enum. All
// Engine methods are safe on a nil receiver, following the obs idiom: an
// uninstrumented simulation pays one nil check per event.
package health

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// hoursPerYear mirrors des.HoursPerYear without importing the kernel.
const hoursPerYear = 365 * 24

// FleetWide is the Rule.Type value (the empty string) selecting the whole
// fleet rather than one device type.
const FleetWide = ""

// allTypes is the resolved form of FleetWide: the engine's per-type
// queries take it to mean the sum over every type.
const allTypes topology.DeviceType = -1

// numTypes sizes the per-type arrays; BBR is the last topology.DeviceType.
const numTypes = int(topology.BBR) + 1

// sumOrder lists every device type in the byte order of its name, the
// order fleet-wide float sums run in. Another order moves the last bits of
// the expected incidents, burn rates and fleet MTTR mean that health.json
// reports (the burn drill of seed 7 and the plain runs of most seeds
// differ in display order); TestSumOrder checks the list against the names.
var sumOrder = [numTypes]topology.DeviceType{
	topology.BBR, topology.CSA, topology.CSW, topology.Core,
	topology.ESW, topology.FSW, topology.RSW, topology.SSW,
}

// budgetSlack scales expected volumes into the error budget (budget =
// slack × expected): a run tracking its calibration burns ~2/3 of budget,
// leaving headroom so Poisson noise alone does not page.
const budgetSlack = 1.5

// reportWindowHours is the rolling window SLOReport summarizes over (90
// days).
const reportWindowHours = 2160

// minMTTRSamples is the minimum number of resolved incidents a window must
// hold before the MTTR signal is considered measurable. Resolution times
// are roughly log-normal with σ ≈ 1.2, so a sample p75 over n draws has a
// log-space standard error near 1.6/√n: below ~20 samples a single tail
// draw parks in the window and doubles the estimate on its own.
const minMTTRSamples = 20

// Targets holds the calibration-derived objectives the engine evaluates
// against. Package faults builds one from its calibration tables via
// HealthTargets; tests may construct them directly.
type Targets struct {
	// EpochYear anchors simulation hour 0 (hour t falls in calendar year
	// EpochYear + floor(t/8760)).
	EpochYear int
	// Years holds one calendar year's objectives per element, Years[i]
	// for year EpochYear+i. Instants past the last year take its
	// population and MTTR target; they expect no incidents.
	Years []Year
}

// Year is one calendar year's objectives, indexed by topology.DeviceType.
type Year struct {
	// Expected is the calibrated expected incident count per device
	// type; the error budget for a window is its time-integral times
	// the budget slack (1.5).
	Expected [numTypes]float64
	// Population is the deployed device count per type, the MTBF
	// denominator.
	Population [numTypes]int
	// MTTRp75 is the target 75th-percentile incident resolution time in
	// hours.
	MTTRp75 float64
}

// expectedIncidents integrates the calibrated incident rate for device
// type dt (allTypes sums every type) over the sim-hour interval [from, to],
// crossing year boundaries as needed. Instants outside the table
// contribute nothing, which truncates windows reaching before the study
// period.
func (t Targets) expectedIncidents(dt topology.DeviceType, from, to float64) float64 {
	if from < 0 {
		from = 0
	}
	// Sum in a fixed order — years ascending, types in sumOrder — so the
	// result, and every report and burn rate built on it, is the same to
	// the last bit on every call.
	total := 0.0
	for i := range t.Years {
		y := &t.Years[i]
		ys := float64(i) * hoursPerYear
		lo, hi := max(from, ys), min(to, ys+hoursPerYear)
		if hi <= lo {
			continue
		}
		rate := 0.0
		if dt == allTypes {
			for _, typ := range sumOrder {
				rate += y.Expected[typ]
			}
		} else {
			rate = y.Expected[dt]
		}
		total += rate * (hi - lo) / hoursPerYear
	}
	return total
}

// year returns the objectives for the year containing sim-hour at: the
// last year for instants beyond the table (repair completions drain a
// little past the final calibrated year), zero for an empty table.
func (t Targets) year(at float64) Year {
	if len(t.Years) == 0 {
		return Year{}
	}
	return t.Years[min(t.yearOf(at)-t.EpochYear, len(t.Years)-1)]
}

// populationAt returns the deployed count for dt (allTypes sums) in the
// year containing sim-hour at.
func (t Targets) populationAt(at float64, dt topology.DeviceType) int {
	pop := t.year(at).Population
	if dt != allTypes {
		return pop[dt]
	}
	n := 0
	for _, v := range pop {
		n += v
	}
	return n
}

func (t Targets) yearOf(at float64) int {
	if at <= 0 {
		return t.EpochYear
	}
	// An instant exactly on a year boundary (e.g. the final evaluation of
	// a run, at the first hour of the following year) belongs to the year
	// just completed, not a year with no calibration.
	return t.EpochYear + int((at-1e-9)/hoursPerYear)
}

// incident is one escalated fault on the engine's timeline.
type incident struct {
	at         float64
	resolution float64
}

// Engine is the streaming evaluator. Construct with New, then feed it
// Record* events (in roughly nondecreasing sim time; small inversions are
// re-sorted on insert) and call Evaluate on a periodic sim-time tick. All
// methods are goroutine-safe and no-ops on a nil receiver.
type Engine struct {
	mu      sync.Mutex
	targets Targets
	rules   []*ruleState
	logger  *slog.Logger
	now     float64

	// started is the earliest sim-hour any event or evaluation touched
	// (+Inf until the first). A rule window reaching before it is not
	// yet full and is unmeasurable — without this, every window at the
	// start of a run truncates to the same few days of data and the
	// multi-window AND degenerates, paging on the first handful of
	// incidents.
	started     float64
	faults      [numTypes]int64
	repairs     [numTypes]int64
	incidents   [numTypes][]incident
	transitions []Transition

	// Telemetry, attached by Instrument; nil-safe no-ops by default.
	mEvals       *obs.Counter
	mTransitions *obs.Counter
	mIncidents   *obs.Counter
	gFiring      *obs.Gauge
}

// New returns an Engine evaluating the given rules against targets. A nil
// or empty rule slice means DefaultRules(). Rule names must be unique, and
// a rule's Type must be FleetWide or a topology.DeviceType name.
func New(targets Targets, rules []Rule) (*Engine, error) {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	e := &Engine{targets: targets, started: math.Inf(1)}
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		typ, err := r.validate()
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("health: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		e.rules = append(e.rules, &ruleState{Rule: r, typ: typ, state: StateInactive})
	}
	return e, nil
}

// SetLogger directs structured transition logs to l (nil disables). Pair
// with obs.NewSimHandler so records carry both clocks.
func (e *Engine) SetLogger(l *slog.Logger) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logger = l
}

// Instrument attaches telemetry: health_evaluations_total and
// health_transitions_total counters, health_incidents_total, a
// health_rules_firing gauge, and one health_burn_<rule> gauge per rule
// holding the worst window's current signal value.
func (e *Engine) Instrument(reg *obs.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mEvals = reg.Counter("health_evaluations_total")
	e.mTransitions = reg.Counter("health_transitions_total")
	e.mIncidents = reg.Counter("health_incidents_total")
	e.gFiring = reg.Gauge("health_rules_firing")
	for _, rs := range e.rules {
		rs.gauge = reg.Gauge("health_burn_" + metricName(rs.Name))
	}
}

// metricName maps a rule name onto the exposition-safe charset.
func metricName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// RecordFault notes a detected device fault (repairable or not) on a
// device of the given type at sim-hour at.
func (e *Engine) RecordFault(at float64, deviceType topology.DeviceType) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults[deviceType]++
	e.noteTime(at)
}

// noteTime widens the engine's observed time range. Caller holds e.mu.
func (e *Engine) noteTime(at float64) {
	if at < e.started {
		e.started = at
	}
	if at > e.now {
		e.now = at
	}
}

// RecordRepair notes a fault masked by repair (automated or manual).
func (e *Engine) RecordRepair(at float64, deviceType topology.DeviceType) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.repairs[deviceType]++
	e.noteTime(at)
}

// RecordIncident notes an escalated fault — a SEV — that started at
// sim-hour at on a device of the given type and took resolutionHours to
// resolve. Incidents may arrive slightly out of order (they surface when
// the failed repair attempt completes, not when the fault started); the
// insert keeps the per-type timeline sorted.
func (e *Engine) RecordIncident(at float64, deviceType topology.DeviceType, resolutionHours float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mIncidents.Inc()
	e.noteTime(at)
	s := e.incidents[deviceType]
	in := incident{at: at, resolution: resolutionHours}
	if n := len(s); n == 0 || s[n-1].at <= at {
		s = append(s, in)
	} else {
		i := sort.Search(n, func(i int) bool { return s[i].at > at })
		s = append(s, incident{})
		copy(s[i+1:], s[i:])
		s[i] = in
	}
	e.incidents[deviceType] = s
}

// countIncidents returns the number of incidents for dt (allTypes sums
// every type) with start in (from, to].
func (e *Engine) countIncidents(dt topology.DeviceType, from, to float64) int {
	count := func(s []incident) int {
		lo := sort.Search(len(s), func(i int) bool { return s[i].at > from })
		hi := sort.Search(len(s), func(i int) bool { return s[i].at > to })
		return hi - lo
	}
	if dt != allTypes {
		return count(e.incidents[dt])
	}
	n := 0
	for _, s := range e.incidents {
		n += count(s)
	}
	return n
}

// resolutionsIn collects resolution times of incidents for dt in (from, to].
// allTypes walks the types in sumOrder, so a sum over the result (the
// report's mean time to repair) is the same to the last bit on every call.
func (e *Engine) resolutionsIn(dt topology.DeviceType, from, to float64) []float64 {
	var out []float64
	collect := func(s []incident) {
		lo := sort.Search(len(s), func(i int) bool { return s[i].at > from })
		hi := sort.Search(len(s), func(i int) bool { return s[i].at > to })
		for _, in := range s[lo:hi] {
			out = append(out, in.resolution)
		}
	}
	if dt != allTypes {
		collect(e.incidents[dt])
	} else {
		for _, typ := range sumOrder {
			collect(e.incidents[typ])
		}
	}
	return out
}

// p75 returns the 75th-percentile of vs (nearest-rank on a sorted copy).
func p75(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := (len(s)*3 + 3) / 4
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// Evaluate advances the rule state machines to sim-hour now: it computes
// every rule's signal over each of its windows, applies the
// threshold + for-duration logic, and emits any transitions through the
// logger and the obs counters. Call it on a periodic sim-time tick (the
// faults driver schedules one per simulated day).
func (e *Engine) Evaluate(now float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.noteTime(now)
	e.mEvals.Inc()
	firing := 0
	var emitted []Transition
	for _, rs := range e.rules {
		values, measurable := e.signalValues(rs, now)
		rs.values = values
		worst := 0.0
		for _, v := range values {
			if v > worst {
				worst = v
			}
		}
		rs.gauge.Set(worst)
		condition := measurable && len(values) > 0
		for _, v := range values {
			if v < rs.Threshold {
				condition = false
			}
		}
		if tr, ok := e.step(rs, condition, worst, now); ok {
			emitted = append(emitted, tr)
		}
		if rs.state == StateFiring {
			firing++
		}
	}
	e.gFiring.Set(float64(firing))
	logger := e.logger
	e.mu.Unlock()
	if logger == nil {
		return
	}

	// Log outside the lock: a reader may be serving Report concurrently.
	for _, tr := range emitted {
		level := slog.LevelInfo
		if tr.To == StateFiring.String() {
			level = slog.LevelWarn
		}
		logger.Log(context.Background(), level, "health alert transition",
			slog.String("rule", tr.Rule),
			slog.String("from", tr.From),
			slog.String("to", tr.To),
			slog.Float64("value", tr.Value),
			obs.SimHours(tr.AtSimHours),
		)
	}
}

// signalValues computes a rule's signal over each window ending at now.
// measurable is false when the signal has no basis yet (no budget in any
// window, too few MTTR samples).
func (e *Engine) signalValues(r *ruleState, now float64) (values []float64, measurable bool) {
	values = make([]float64, len(r.Windows))
	measurable = true
	for i, w := range r.Windows {
		from := now - w
		if from < e.started {
			// The window reaches before the first observed event: it
			// is not yet full, and judging a truncated window against
			// a truncated budget pages on the first few incidents of a
			// run. Wait until the window fills.
			measurable = false
			continue
		}
		switch r.Signal {
		case SignalIncidentBurn:
			budget := budgetSlack * e.targets.expectedIncidents(r.typ, from, now)
			if budget <= 0 {
				measurable = false
				continue
			}
			values[i] = float64(e.countIncidents(r.typ, from, now)) / budget
		case SignalMTTR:
			target := e.targets.year(now).MTTRp75
			samples := e.resolutionsIn(r.typ, from, now)
			if target <= 0 || len(samples) < minMTTRSamples {
				measurable = false
				continue
			}
			values[i] = p75(samples) / target
		default:
			measurable = false
		}
	}
	return values, measurable
}

// step applies one evaluation outcome to a rule's state machine and
// returns the transition it caused, if any. Caller holds e.mu.
func (e *Engine) step(rs *ruleState, condition bool, value, now float64) (Transition, bool) {
	from := rs.state
	switch rs.state {
	case StateInactive:
		if condition {
			rs.since = now
			// A zero For fires immediately, as in Prometheus.
			if rs.For <= 0 {
				rs.state = StateFiring
			} else {
				rs.state = StatePending
			}
		}
	case StatePending:
		switch {
		case !condition:
			rs.state = StateInactive
		case now-rs.since >= rs.For:
			rs.state = StateFiring
		}
	case StateFiring:
		if !condition {
			rs.state = StateInactive
		}
	}
	if rs.state == from {
		return Transition{}, false
	}
	if rs.state == StateInactive {
		rs.since = 0
	}
	tr := Transition{
		Rule:       rs.Name,
		From:       from.String(),
		To:         rs.state.String(),
		AtSimHours: now,
		Value:      value,
	}
	tr.Message = fmt.Sprintf("health: rule %s %s -> %s at sim %.1fh (signal %s=%.2f, threshold %.2f)",
		tr.Rule, tr.From, tr.To, now, rs.Signal, value, rs.Threshold)
	e.transitions = append(e.transitions, tr)
	e.mTransitions.Inc()
	return tr, true
}

// Healthy reports whether no rule is currently firing. A nil engine is
// vacuously healthy.
func (e *Engine) Healthy() bool {
	if e == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			return false
		}
	}
	return true
}
