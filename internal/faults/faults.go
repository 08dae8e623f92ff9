// Package faults generates the intra-data-center operational history: seven
// years of device faults, pushed through automated (or, before 2013,
// manual) repair, with the unrepairable remainder escalating into SEV
// reports whose severity the service-impact model computes from the
// topology.
//
// The output of a run is a populated sev.Store — the simulated equivalent
// of the SEV database the paper queried — plus the remediation engine's
// Table 1 statistics.
package faults

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"

	"dcnr/internal/des"
	"dcnr/internal/fleet"
	"dcnr/internal/obs"
	"dcnr/internal/obs/health"
	"dcnr/internal/obs/journal"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/observe"
	"dcnr/internal/remediation"
	"dcnr/internal/service"
	"dcnr/internal/sev"
	"dcnr/internal/simrand"
	"dcnr/internal/topology"
)

// Fault is one device issue detected by monitoring. It is pointer-free, so
// the slab holding a run's faults costs the garbage collector nothing to
// scan.
type Fault struct {
	// Type is the device type.
	Type topology.DeviceType
	// Class is the issue taxonomy entry (§4.1.3).
	Class remediation.FaultClass
	// Scope is how much of the redundancy group the root cause consumed;
	// it only matters if the fault escalates.
	Scope service.Scope
	// Start is the detection time in hours since epoch.
	Start float64
	// Year is the calendar year of Start.
	Year int

	// ordinal and fabric are the device identity draws, made when the
	// fault is drawn so RNG stream order does not depend on whether
	// anything reads the name: the device's uniform position in that
	// year's population, and (for racks from the fabric deployment year
	// on) whether it lives in the fabric data center.
	ordinal int
	fabric  bool
	// draw is the fault's position in the run's draw order.
	draw int32
}

// Device returns the virtual fleet device name (type-prefixed). It is
// built on each call; only incident reports and debug logs render it.
func (f *Fault) Device() string {
	var ub [24]byte
	unit, dc, region := f.nameParts(&ub)
	return topology.MakeName(f.Type, f.ordinal, string(unit), dc, region)
}

// nameParts returns the parts of the device's name after its ordinal: the
// unit, built in ub, the data center and the region.
func (f *Fault) nameParts(ub *[24]byte) (unit []byte, dc, region string) {
	unit, dc, region = ub[:0], "dc1", "regiona"
	switch f.Type {
	case topology.RSW:
		// Racks split across designs; fabric racks exist from 2015.
		if f.fabric {
			unit, dc, region = topology.AppendOrdinal(append(unit, "pod"...), 1+f.ordinal/48), "dc2", "regionb"
		} else {
			unit = topology.AppendOrdinal(append(unit, "cl"...), 1+f.ordinal/80)
		}
	case topology.CSW:
		unit = topology.AppendOrdinal(append(unit, "cl"...), 1+f.ordinal/4)
	case topology.FSW:
		unit, dc, region = topology.AppendOrdinal(append(unit, "pod"...), 1+f.ordinal/4), "dc2", "regionb"
	case topology.ESW, topology.SSW:
		dc, region = "dc2", "regionb"
	}
	return unit, dc, region
}

// faultKey sorts the fault slab: by start time, then by draw index, the
// order the kernel fired the faults in when each was scheduled as drawn.
// Radix-sorting these 16-byte keys (sortFaultKeys) and then permuting the
// slab once is much cheaper than sorting the slab itself.
type faultKey struct {
	start float64
	draw  int32
}

// sortFaultKeys sorts keys by start, ties broken by draw, and returns the
// sorted slice, which is keys or a buffer of the same length. keys must
// arrive in draw order: the sort is a stable LSD radix sort on the bits
// of start, so stability alone breaks ties by draw index. A byte pass in
// which every key has the same byte is skipped.
//
// Precondition: every start is finite and >= +0 (never -0). Such float64
// values order the same way as their bit patterns; drawFaults only draws
// such starts.
func sortFaultKeys(keys []faultKey) []faultKey {
	if len(keys) < 2 {
		return keys
	}
	var counts [8][256]int
	for _, k := range keys {
		b := math.Float64bits(k.start)
		for p := range counts {
			counts[p][byte(b>>(8*p))]++
		}
	}
	first := math.Float64bits(keys[0].start)
	src, dst := keys, make([]faultKey, len(keys))
	for p := range counts {
		c := &counts[p]
		if c[byte(first>>(8*p))] == len(keys) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(math.Float64bits(k.start) >> (8 * p))
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// Driver runs the intra-DC simulation. Construct with NewDriver, then call
// Run once: a Driver is single-use, because its simulator's clock ends a
// run at +Inf.
type Driver struct {
	Fleet *fleet.Model
	// Engine is the automated repair system; disable it for the §5.6
	// ablation.
	Engine *remediation.Engine
	// Store receives the escalated faults as SEV reports.
	Store *sev.Store

	// ElevateYear and ElevateFactor inject an anomaly: the fault arrival
	// rate of ElevateYear is multiplied by ElevateFactor (> 1) while the
	// health engine keeps judging against the unelevated calibration —
	// the scenario that drives burn-rate alerts through their lifecycle.
	// A zero factor (or year outside the run) changes nothing.
	ElevateYear   int
	ElevateFactor float64

	sim     *des.Simulator
	src     *simrand.Source
	manual  *simrand.Stream
	details *simrand.Stream
	health  *health.Engine
	logger  *slog.Logger
	// jnl is the run's causal journal: the driver records fault
	// raised/detected and incident opened/closed entries, the remediation
	// engine the ticket→repair middle of each chain, all on the simulator
	// goroutine. Nil is a no-op.
	jnl *journal.Journal
	// tsampler feeds the attached metrics timeline on the kernel's
	// cadence grid; flushed at the end of Run. Nil is a no-op.
	tsampler *timeline.Sampler
	// classShares caches remediation.ClassShares() and causeWeights the
	// Table 2 root-cause weights in sev.RootCauses order — both are
	// constants, and building a fresh slice per fault or incident was a
	// measurable share of their allocations.
	classShares  []float64
	causeWeights []float64
	// impact is the process-wide service-impact table (impactTable).
	impact *impactTable

	// The fault cursor. Run draws every fault into slab, sorts the slab
	// into firing order, and reserves one kernel sequence number per
	// fault from seqBase, the numbers they would have taken scheduled as
	// drawn. Exactly one fault event is queued at a time: onFault (bound
	// once, so no closure per fault) handles slab[next] and re-arms the
	// one after it. A fault goes to the remediation engine tagged with its
	// slab index, and the engine hands the tag back to outcome (onOutcome,
	// also bound once).
	slab    []Fault
	next    int
	seqBase uint64
	onFault des.Handler
	outcome func(int32, remediation.Outcome)
	ran     bool

	incidents int
}

// maxRepresentatives caps how many devices of a type stand in for the
// virtual fleet's devices of that type. Redundancy structure is identical
// across a type's devices, and the cap keeps the impact table small.
const maxRepresentatives = 8

// numScopes is the number of service.Scope values.
const numScopes = int(service.ScopeUnit) + 1

// impactTable is the service impact of every escalation a driver can
// record: for each device type, the assessment of each of its (at most
// maxRepresentatives) representatives, the first devices of that type in
// the representative topology, failing at each scope. Its inputs never
// vary, so one immutable table serves every driver in the process, sweep
// workers included; the Services slices its assessments hold are shared
// by every report recorded from them, which no code path mutates.
type impactTable struct {
	reps [int(topology.BBR) + 1]int
	as   [int(topology.BBR) + 1][maxRepresentatives][numScopes]service.Assessment
}

// sharedImpact builds the impact table once per process.
var sharedImpact = sync.OnceValues(func() (*impactTable, error) {
	repTopo, err := fleet.RepresentativeTopology()
	if err != nil {
		return nil, err
	}
	a := service.NewAssessor(repTopo)
	t := &impactTable{}
	for _, dev := range repTopo.Devices() {
		i := t.reps[dev.Type]
		if i == maxRepresentatives {
			continue
		}
		for sc := range t.as[dev.Type][i] {
			if t.as[dev.Type][i][sc], err = a.Assess(dev.Name, service.Scope(sc)); err != nil {
				return nil, err
			}
		}
		t.reps[dev.Type]++
	}
	return t, nil
})

// NewDriver wires a Driver over a fresh simulator, remediation engine, and
// SEV store, all seeded from seed, and the process's impact table.
func NewDriver(fl *fleet.Model, seed uint64) (*Driver, error) {
	impact, err := sharedImpact()
	if err != nil {
		return nil, err
	}
	sim := &des.Simulator{}
	src := simrand.NewSource(seed)
	d := &Driver{
		Fleet:       fl,
		Engine:      remediation.NewEngine(sim, src.Stream("remediation")),
		Store:       sev.NewStore(),
		sim:         sim,
		src:         src,
		manual:      src.Stream("manual-repair"),
		details:     src.Stream("incident-details"),
		classShares: remediation.ClassShares(),
		impact:      impact,
	}
	for _, c := range sev.RootCauses {
		d.causeWeights = append(d.causeWeights, rootCauseWeights[c])
	}
	d.onFault = d.fireFault
	d.outcome = d.onOutcome
	return d, nil
}

// NewJournal returns a causal journal pre-configured with the intra-DC
// name tables (device types, fault classes, severities), ready to pass
// through observe.Observe.Journal.
func NewJournal() *journal.Journal {
	dev := make([]string, int(topology.BBR)+1)
	for _, t := range topology.DeviceTypes {
		dev[t] = t.String()
	}
	class := make([]string, len(remediation.FaultClasses))
	for i, c := range remediation.FaultClasses {
		class[i] = c.String()
	}
	sevs := make([]string, int(sev.Sev3)+1)
	for _, s := range sev.Severities {
		sevs[s] = s.String()
	}
	return journal.New(dev, class, sevs)
}

// timelineCounters and timelineGauges name the registry series an
// intra-DC timeline tracks: the DES kernel's event counter,
// the remediation plane's ticket flow and queue, and the health engine's
// incident/transition counters. All are driven purely by simulation
// events, so their sampled series are deterministic for a fixed seed
// (wall-clock histograms are deliberately absent). The sampler resolves
// them get-or-create: a series its run never touches simply records
// nothing.
var (
	timelineCounters = []string{
		"des_events_fired_total",
		"remediation_submitted_total",
		"remediation_repaired_total",
		"remediation_escalated_total",
		"health_incidents_total",
		"health_transitions_total",
	}
	timelineGauges = []string{
		"des_queue_depth",
		"remediation_queue_depth",
		"health_rules_firing",
	}
)

// Observe attaches a run's observability bundle; it is the one place a
// run's sinks are wired. Metrics and Trace instrument the DES kernel
// (event counters, queue depth, sim-vs-wall time), the remediation engine
// (queue depth, wait/repair histograms, submit→outcome trace spans) and
// the SEV store's query engine (indexed-vs-scan counters). Health receives
// every fault, repair and incident plus a daily sim-time evaluation tick,
// and is instrumented with the run's registry. Logger logs incidents at
// info and fault-level churn at debug, each record carrying the
// simulation clock; it is handed to the health engine too, and a health
// engine's own logger is left alone when Logger is nil. Journal records
// each fault's raised/detected entries and any incident's opened/closed
// entries, the remediation engine the ticket→dispatch/escalate→repair
// middle, all linked by parent IDs into one chain per fault and recorded
// on the simulator goroutine (a journal is single-writer, so give each
// run its own). Timeline samples the registry's event-driven series on
// the timeline's cadence grid, timed by the DES clock; a timeline without
// Metrics gets a private registry, since the sampler needs instrumented
// series to read. Journal and timeline draw no randomness and read no
// wall clock, so attaching them never changes the generated dataset, and
// Run publishes whatever they and the engine's trace rings still stage
// before it returns. Nil fields are no-ops. Call once, before Run.
func (d *Driver) Observe(o observe.Observe) {
	reg := o.Metrics
	if reg == nil && o.Timeline != nil {
		reg = obs.NewRegistry()
	}
	d.sim.Instrument(reg, o.Trace)
	d.jnl = o.Journal
	d.Engine.Observe(observe.Observe{Metrics: reg, Trace: o.Trace, Journal: o.Journal, Logger: o.Logger})
	d.Store.Instrument(reg)
	d.health = o.Health
	o.Health.Instrument(reg)
	if o.Logger != nil {
		d.logger = o.Logger
		d.sim.SetLogger(o.Logger)
		o.Health.SetLogger(o.Logger)
	}
	if o.Timeline != nil {
		d.tsampler = timeline.NewSampler(o.Timeline, reg, timelineCounters, timelineGauges)
		d.sim.SetSampleHook(timeline.DefaultCadence, d.tsampler.Sample)
	}
}

// Faults reports how many device faults Run generated.
func (d *Driver) Faults() int { return len(d.slab) }

// Incidents reports how many faults escalated into SEVs.
func (d *Driver) Incidents() int { return d.incidents }

// Run simulates the years [from, to] (inclusive) and returns the populated
// SEV store. Faults arrive as a Poisson process per (year, device type)
// whose rate is the calibrated incident target divided by the type's
// repair-success probability — so the incident stream emerges from the
// fault stream passing through the repair machinery, not from sampling
// incidents directly. A Driver runs once: a second Run returns an error.
func (d *Driver) Run(from, to int) (*sev.Store, error) {
	if d.ran {
		return nil, errors.New("faults: Run called twice; a Driver is single-use")
	}
	if from < fleet.FirstYear || to > fleet.LastYear || from > to {
		return nil, fmt.Errorf("faults: year range [%d, %d] outside study period", from, to)
	}
	d.ran = true
	// The volumes stream is independent of the per-(year, type) streams,
	// so every count is drawn first and the slab is sized once.
	var cells []faultCell
	total := 0
	volumes := d.src.Stream("volumes")
	for year := from; year <= to; year++ {
		for _, dt := range topology.IntraDCTypes {
			if d.Fleet.Population(year, dt) == 0 {
				continue
			}
			target := IncidentTarget(year, dt) * float64(d.Fleet.Scale())
			if target == 0 {
				continue
			}
			raw := target / escalationProb(dt)
			if year == d.ElevateYear && d.ElevateFactor > 0 {
				raw *= d.ElevateFactor
			}
			n := volumes.Poisson(raw)
			cells = append(cells, faultCell{year, dt, n})
			total += n
		}
	}
	d.slab = make([]Fault, 0, total)
	for _, c := range cells {
		d.drawFaults(c.year, c.dt, c.n)
	}
	d.Store.Grow(storeReservation(cells, d.Engine.Enabled()))
	d.armFaults()
	d.scheduleHealthTicks(from, to)
	d.sim.Run(math.Inf(1))
	if d.health != nil {
		// Run(∞) leaves the clock at +Inf once the queue drains; close
		// the books at the finite end of the simulated range.
		d.health.Evaluate(des.YearStart(to+1, fleet.FirstYear))
	}
	// Publish what the sinks still stage — repair spans in the engine's
	// rings, records in the journal, samples in the timeline — so every
	// sink is complete when Run returns.
	d.Engine.FlushTrace()
	d.jnl.Flush()
	d.tsampler.Flush()
	return d.Store, nil
}

// faultCell is one (year, device type) cell of a run with its drawn
// fault count.
type faultCell struct {
	year int
	dt   topology.DeviceType
	n    int
}

// storeReservation returns how many SEV reports Run reserves in the store
// before simulating cells: the expected incident count plus four times its
// square root plus 16. A fault escalates with its type's escalationProb,
// except from AutomatedRepairYear on with the remediation engine disabled,
// where every fault escalates. The drawn fault count would also bound the
// incidents, but a baseline run escalates about one fault in 110, so
// reserving by it costs far more memory than the appends it saves.
func storeReservation(cells []faultCell, engineEnabled bool) int {
	expected := 0.0
	for _, c := range cells {
		p := escalationProb(c.dt)
		if c.year >= fleet.AutomatedRepairYear && !engineEnabled {
			p = 1
		}
		expected += float64(c.n) * p
	}
	return int(expected+4*math.Sqrt(expected)) + 16
}

// healthEvalPeriod is the sim-time cadence of health-engine evaluations:
// one tick per simulated day, ~2.5k extra events over a full study run.
const healthEvalPeriod = 24.0

// scheduleHealthTicks pre-schedules the health engine's evaluation ticks,
// one per healthEvalPeriod over the simulated range. One handler, bound
// once, serves every tick.
func (d *Driver) scheduleHealthTicks(from, to int) {
	if d.health == nil {
		return
	}
	start := des.YearStart(from, fleet.FirstYear)
	end := des.YearStart(to+1, fleet.FirstYear)
	tick := d.evaluateHealth
	for t := start + healthEvalPeriod; t <= end; t += healthEvalPeriod {
		if err := d.sim.Schedule(t, tick, 0); err != nil {
			panic(fmt.Sprintf("faults: scheduling health tick: %v", err))
		}
	}
}

// evaluateHealth is the health tick's handler.
func (d *Driver) evaluateHealth(now float64, _ int32) { d.health.Evaluate(now) }

// drawFaults appends the n faults of one (year, device type) cell to the
// slab.
func (d *Driver) drawFaults(year int, dt topology.DeviceType, n int) {
	timing := d.src.Stream(fmt.Sprintf("timing/%d/%s", year, dt))
	details := d.src.Stream(fmt.Sprintf("details/%d/%s", year, dt))
	yearStart := des.YearStart(year, fleet.FirstYear)
	pop := d.Fleet.Population(year, dt)
	fabricRacks := dt == topology.RSW && year >= fleet.FabricDeployYear
	for i := 0; i < n; i++ {
		f := Fault{
			Type:  dt,
			Class: remediation.FaultClass(details.Weighted(d.classShares)),
			Scope: service.Scope(details.Weighted(scopeWeights[dt])),
			Start: yearStart + timing.Float64()*des.HoursPerYear,
			Year:  year,
		}
		// Identity draws (ordinal uniform over that year's population, so
		// incident density per named device matches the fleet's) happen
		// here in the original stream order; Device builds the name.
		f.ordinal = 1 + details.Intn(pop)
		if fabricRacks {
			f.fabric = details.Bool(0.5)
		}
		f.draw = int32(len(d.slab))
		d.slab = append(d.slab, f)
	}
}

// armFaults sorts the slab into firing order, reserves the faults'
// sequence numbers, and queues the first. Fault i of the draw order takes
// seqBase+i, the number Schedule would have given it had every fault been
// scheduled as drawn, so ties with other events at the same instant, the
// kernel's Pending count and the des_queue_depth series all come out as
// they would have.
func (d *Driver) armFaults() {
	keys := make([]faultKey, len(d.slab))
	for i := range d.slab {
		keys[i] = faultKey{start: d.slab[i].Start, draw: int32(i)}
	}
	keys = sortFaultKeys(keys)
	// Permute the slab in place, one cycle at a time: position j takes
	// the fault keys[j] names, and a key is spent (-1) once its position
	// is filled.
	for i := range keys {
		if keys[i].draw < 0 {
			continue
		}
		first, j := d.slab[i], i
		for {
			src := int(keys[j].draw)
			keys[j].draw = -1
			if src == i {
				d.slab[j] = first
				break
			}
			d.slab[j] = d.slab[src]
			j = src
		}
	}
	d.seqBase = d.sim.Reserve(len(d.slab))
	if len(d.slab) > 0 {
		d.armNext()
	}
}

// armNext queues the fault under the cursor.
func (d *Driver) armNext() {
	f := &d.slab[d.next]
	if err := d.sim.ScheduleReserved(f.Start, d.seqBase+uint64(f.draw), d.onFault, 0); err != nil {
		panic(fmt.Sprintf("faults: scheduling fault: %v", err))
	}
}

// fireFault is the fault event's handler: it advances the cursor, queues
// the next fault, and handles the one that fired. Re-arming first is
// safe: everything the handler schedules takes a sequence number above
// every reserved one, so it cannot overtake the next fault.
//
//hot:noalloc
func (d *Driver) fireFault(float64, int32) {
	idx := d.next
	d.next++
	if d.next < len(d.slab) {
		d.armNext()
	}
	d.handleFault(int32(idx))
}

// handleFault journals the detection of the fault at slab index idx and
// passes it to manual repair or to the remediation engine, tagged with
// idx.
//
//hot:noalloc
func (d *Driver) handleFault(idx int32) {
	f := &d.slab[idx]
	d.health.RecordFault(f.Start, f.Type)
	// The fault's journal root: raised and detected coincide in this model
	// (monitoring detects instantaneously), and journaling both makes that
	// a recorded fact instead of an assumption baked into readers.
	raised := d.jnl.Record(journal.Record{
		Kind: journal.FaultRaised, Time: f.Start,
		Dev: uint8(f.Type), Class: int8(f.Class), Sev: -1,
	})
	detected := d.jnl.Record(journal.Record{
		Kind: journal.FaultDetected, Parent: raised, Time: f.Start,
		Dev: uint8(f.Type), Class: int8(f.Class), Sev: -1,
	})
	if d.logger != nil {
		d.logDetected(f)
	}
	// Before 2013 there is no automated repair: the manual repair desk
	// masks faults at the same per-type success rate, just slowly (§3.1's
	// "humans perform slow repairs" — which is why automation changed the
	// operational load, not the SEV stream).
	if f.Year < fleet.AutomatedRepairYear {
		if !d.manual.Bool(escalationProb(f.Type)) {
			d.health.RecordRepair(f.Start, f.Type)
			d.jnl.Record(journal.Record{
				Kind: journal.Repaired, Parent: detected, Time: f.Start,
				Dev: uint8(f.Type), Class: int8(f.Class), Sev: -1,
			})
			return // repaired by a technician; no service impact
		}
		d.recordIncident(f, detected)
		return
	}
	d.Engine.SubmitTag(f.Type, f.Class, detected, d.outcome, idx)
}

// logDetected logs a detected fault. Kept outside handleFault's
// //hot:noalloc region: the device name and slog attributes allocate, and
// it runs only with a logger attached.
func (d *Driver) logDetected(f *Fault) {
	d.logger.Debug("fault detected",
		slog.String("device", f.Device()),
		slog.String("class", f.Class.String()),
		obs.SimHours(f.Start))
}

// onOutcome receives the remediation engine's verdict on the fault at
// slab index idx.
//
//hot:noalloc
func (d *Driver) onOutcome(idx int32, o remediation.Outcome) {
	f := &d.slab[idx]
	if o.Repaired {
		d.health.RecordRepair(d.sim.Now(), f.Type)
		return
	}
	// The incident's cause is the engine's escalation record. The engine
	// journals into the journal Observe gives it together with the
	// driver, so the record is nonzero whenever the driver journals, and
	// both are zero without a journal (recordIncident then journals
	// nothing).
	d.recordIncident(f, o.Journal)
}

// recordIncident escalates f into a SEV report; cause is the journal ID
// the incident records are parented on (0 with no journal attached).
func (d *Driver) recordIncident(f *Fault, cause journal.ID) {
	// The title and the device name it contains are one allocation:
	// the device is a substring of the title.
	var buf [128]byte
	var ub [24]byte
	unit, dc, region := f.nameParts(&ub)
	title := append(append(buf[:0], f.Class.String()...), " on "...)
	from := len(title)
	title = topology.AppendName(title, f.Type, f.ordinal, string(unit), dc, region)
	to := len(title)
	title = append(append(append(title, " ("...), f.Scope.String()...), " scope)"...)
	text := string(title)
	device := text[from:to]
	details := d.details
	as := &d.impact.as[f.Type][d.representative(details, f.Type)][f.Scope]
	resolution := d.resolutionHours(details, f.Year)
	duration := resolution * (0.05 + 0.45*details.Float64())
	report := sev.Report{
		Severity:         as.Severity,
		Device:           device,
		RootCauses:       d.drawRootCauses(details),
		Start:            f.Start,
		Duration:         duration,
		Resolution:       resolution,
		Year:             f.Year,
		Title:            text,
		Impact:           as.Impact,
		ServicesAffected: as.Services,
		Reviewed:         true,
	}
	id, err := d.Store.Add(report)
	if err != nil {
		panic(fmt.Sprintf("faults: storing SEV: %v", err))
	}
	d.incidents++
	opened := d.jnl.Record(journal.Record{
		Kind: journal.IncidentOpened, Parent: cause, Time: f.Start,
		Ref: int32(id), Dev: uint8(f.Type), Class: int8(f.Class), Sev: int8(as.Severity),
	})
	d.jnl.Record(journal.Record{
		Kind: journal.IncidentClosed, Parent: opened, Time: f.Start + resolution,
		Aux: resolution, Ref: int32(id), Dev: uint8(f.Type), Class: int8(f.Class), Sev: int8(as.Severity),
	})
	d.health.RecordIncident(f.Start, f.Type, resolution)
	if d.logger != nil {
		d.logger.Info("incident escalated",
			slog.Int("sev", id),
			slog.String("device", device),
			slog.String("severity", as.Severity.String()),
			slog.Float64("resolution_hours", resolution),
			obs.SimHours(f.Start))
	}
}

// representative maps a virtual device to a same-type device in the
// representative topology for impact assessment, drawn uniformly from the
// type's representatives: it returns the representative's index in the
// impact table.
func (d *Driver) representative(rng *simrand.Stream, dt topology.DeviceType) int {
	return rng.Intn(d.impact.reps[dt])
}

func (d *Driver) drawRootCauses(rng *simrand.Stream) []sev.RootCause {
	weights := d.causeWeights
	first := sev.RootCauses[rng.Weighted(weights)]
	if first == sev.Undetermined {
		// Undetermined SEVs have no recorded cause at all — engineers
		// only described symptoms (§5.1).
		return nil
	}
	causes := []sev.RootCause{first}
	if rng.Bool(multiCauseProb) {
		second := sev.RootCauses[rng.Weighted(weights)]
		if second != first && second != sev.Undetermined {
			causes = append(causes, second)
		}
	}
	return causes
}

// resolutionHours draws an incident resolution time whose yearly p75
// follows the Figure 13 calibration.
func (d *Driver) resolutionHours(rng *simrand.Stream, year int) float64 {
	p75 := resolutionP75[year]
	if p75 == 0 {
		p75 = resolutionP75[fleet.LastYear]
	}
	// For LogNormal(mu, sigma), p75 = exp(mu + 0.6745*sigma).
	mu := math.Log(p75) - 0.6745*resolutionSigma
	return rng.LogNormal(mu, resolutionSigma)
}
