// Package journal is a causal incident journal: an allocation-conscious
// structured wide-event stream that records the full lifecycle of every
// simulated fault — raised → detected → ticket cut → remediation
// dispatched → escalated (if any) → repaired → incident opened/closed —
// with stable causal IDs linking each record to its parent, so any
// incident can be explained as a chain walked root-to-leaf.
//
// The paper's methodology rests on exactly this kind of provenance: a SEV
// ties a root-cause event to the device, the remediation path, and the
// time spent in each phase, which is what makes its MTTR decompositions
// possible. The journal captures the same provenance at generation time.
//
// # Memory layout
//
// Records are pointer-free fixed-size structs (40 bytes) staged in
// per-lane rings — each Lane is an obs.Lane, the single-writer staging
// buffer published as immutable blocks that SpanRing also uses, so the
// hot path costs one struct store and one atomic ID allocation, never a
// map or an encoder. Lanes flush automatically when the staging buffer
// fills and explicitly before the run that records them returns (the
// faults driver flushes every lane at the end of Run); readers (WriteJSONL,
// Index) see only flushed blocks, so a mid-run reader observes a
// consistent prefix of each lane while writers keep recording.
//
// # Determinism
//
// IDs are allocated from one atomic counter across all lanes. The DES
// kernel is single-threaded, so for a fixed seed the allocation order —
// and therefore the ID-sorted JSONL output — is bit-for-bit reproducible.
// Recording draws no randomness and reads no wall clock, so an attached
// journal never perturbs the simulation's RNG streams or outputs.
//
// All methods are safe on a nil *Journal and nil *Lane, matching the
// project-wide observability contract: a nil journal is a no-op costing
// the hot paths nothing.
package journal

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
)

// ID is a causal record identifier, unique within one journal. IDs are
// dense, start at 1, and increase in record-issue order; 0 means "no
// record" (an absent parent, or a Record call on a nil lane).
type ID uint64

// Kind discriminates the lifecycle stages a record can mark.
type Kind uint8

const (
	// FaultRaised is the root of every chain: a device issue occurred.
	FaultRaised Kind = iota
	// FaultDetected marks monitoring noticing the fault (parent: the
	// FaultRaised record).
	FaultDetected
	// TicketCut marks the remediation system accepting the fault (parent:
	// FaultDetected).
	TicketCut
	// Dispatched marks an automated repair leaving the queue; Aux carries
	// the queueing wait in hours (parent: TicketCut).
	Dispatched
	// Escalated marks automation giving up — unsupported device, disabled
	// engine, or an unfixable issue (parent: TicketCut).
	Escalated
	// Repaired marks a completed repair; Aux carries the execution time in
	// seconds for automated repairs (parent: Dispatched) and 0 for
	// manual-era technician fixes (parent: FaultDetected).
	Repaired
	// IncidentOpened marks a SEV being cut; Ref is the SEV store ID and
	// Sev the severity (parent: Escalated, or FaultDetected pre-2013).
	IncidentOpened
	// IncidentClosed marks the incident resolving; Aux carries the
	// resolution time in hours (parent: IncidentOpened).
	IncidentClosed

	numKinds = int(IncidentClosed) + 1
)

var kindNames = [numKinds]string{
	"fault_raised", "fault_detected", "ticket_cut", "dispatched",
	"escalated", "repaired", "incident_opened", "incident_closed",
}

// String names the kind as it appears in the JSONL stream.
func (k Kind) String() string {
	if int(k) >= numKinds {
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindNames[k]
}

// Record is one journal entry: 40 bytes, no pointers, so a full staging
// buffer is a single GC-free block.
type Record struct {
	// ID is the record's causal identifier, assigned by Lane.Record.
	ID ID
	// Parent links to the record this one was caused by; 0 at chain roots.
	Parent ID
	// Time is the simulation time of the event in hours since epoch.
	Time float64
	// Aux is a kind-specific value: queue wait in hours (Dispatched),
	// repair execution in seconds (Repaired), resolution in hours
	// (IncidentClosed); 0 otherwise.
	Aux float64
	// Ref is the SEV store ID on incident records; 0 otherwise.
	Ref int32
	// Kind is the lifecycle stage this record marks.
	Kind Kind
	// Dev is the device type ordinal (topology.DeviceType).
	Dev uint8
	// Class is the fault class ordinal, or -1 when not applicable.
	Class int8
	// Sev is the severity on incident records (1–3), or -1.
	Sev int8
}

// Journal allocates causal IDs and owns the record lanes. Construct with
// New; a nil *Journal (and every lane obtained from it) is a valid no-op.
type Journal struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	lanes []*Lane
	// Name tables for JSONL encoding, indexed by the Record ordinals. Set
	// once before recording (SetNames); missing entries fall back to the
	// bare number.
	devNames, classNames, sevNames []string
}

// New returns an empty journal.
func New() *Journal { return &Journal{} }

// SetNames installs the enum name tables used when encoding records:
// device types indexed by Record.Dev, fault classes by Record.Class,
// severities by Record.Sev. Call once, before the journal is written or
// indexed. Nil slices keep the previous table.
func (j *Journal) SetNames(dev, class, sev []string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if dev != nil {
		j.devNames = dev
	}
	if class != nil {
		j.classNames = class
	}
	if sev != nil {
		j.sevNames = sev
	}
}

// Lane creates a new record lane. Like every obs.Lane, a lane is
// SINGLE-WRITER: exactly one goroutine may call Record / Flush at a time
// (callers that share a lane across goroutines serialize on their own
// mutex, as the remediation engine does). Returns nil — a valid no-op
// lane — on a nil journal.
func (j *Journal) Lane() *Lane {
	if j == nil {
		return nil
	}
	l := &Lane{j: j}
	j.mu.Lock()
	j.lanes = append(j.lanes, l)
	j.mu.Unlock()
	return l
}

// Len reports the number of flushed (reader-visible) records.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	lanes := append([]*Lane(nil), j.lanes...)
	j.mu.Unlock()
	n := 0
	for _, l := range lanes {
		n += l.ring.Len()
	}
	return n
}

// Records returns every flushed record across all lanes, sorted by ID —
// the canonical causal order. Safe to call while writers keep recording:
// it sees a consistent prefix of each lane.
//
// A lane's records carry strictly increasing IDs (one writer drawing from
// the shared counter), so the lanes are merged rather than sorted: a study
// run's few hundred thousand records assemble in one O(n·lanes) pass
// instead of an O(n log n) comparison sort over 40-byte elements.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	lanes := append([]*Lane(nil), j.lanes...)
	j.mu.Unlock()

	allBlocks := make([][]Record, 0, 8)
	total := 0
	for _, l := range lanes {
		for _, b := range l.ring.Blocks() {
			allBlocks = append(allBlocks, b)
			total += len(b)
		}
	}

	// Fast path: a journal whose lanes are fully flushed holds exactly the
	// IDs 1..total, so every record can be placed directly at recs[ID-1] —
	// no comparisons at all. A live mid-run snapshot (some IDs issued but
	// unflushed) leaves holes; then fall back to merging the lanes.
	recs := make([]Record, total)
	placed := true
	for _, blk := range allBlocks {
		for _, r := range blk {
			if r.ID < 1 || r.ID > ID(total) || recs[r.ID-1].ID != 0 {
				placed = false
				break
			}
			recs[r.ID-1] = r
		}
		if !placed {
			break
		}
	}
	if placed {
		return recs
	}

	// Slow path: concatenate and sort by ID. Each lane's records are
	// already ID-ascending (one writer drawing from the shared counter), so
	// the sort sees mostly-ordered input; this path only runs for partial
	// snapshots, which live introspection keeps small and rare.
	recs = recs[:0]
	for _, blk := range allBlocks {
		recs = append(recs, blk...)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	return recs
}

// names returns the journal's name tables.
func (j *Journal) names() nameTables {
	if j == nil {
		return nameTables{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return nameTables{j.devNames, j.classNames, j.sevNames}
}

// nameTables bundles the enum name tables a journal encodes with.
type nameTables struct {
	dev, class, sev []string
}

func (t nameTables) devName(i uint8) string {
	if int(i) < len(t.dev) && t.dev[i] != "" {
		return t.dev[i]
	}
	return strconv.Itoa(int(i))
}

func (t nameTables) className(i int8) string {
	if i >= 0 && int(i) < len(t.class) && t.class[i] != "" {
		return t.class[i]
	}
	return strconv.Itoa(int(i))
}

func (t nameTables) sevName(i int8) string {
	if i >= 0 && int(i) < len(t.sev) && t.sev[i] != "" {
		return t.sev[i]
	}
	return strconv.Itoa(int(i))
}

// WriteJSONL writes every flushed record as one JSON object per line, in
// ID order — deterministic for a fixed simulation seed. The encoder is
// hand-rolled append-based work tuned for the stream's shape: a full
// study run journals a few hundred thousand records, so per-record
// nanoseconds are end-to-end milliseconds. Time and aux values are
// written as fixed-point decimals with up to six fractional digits
// (micro-hour / micro-second resolution) — integer formatting is several
// times cheaper than shortest-float, and a fault's lifecycle records
// share timestamps, which the encoder renders once and reuses.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	return writeJSONL(w, j.Records(), j.names())
}

// kindFrag pre-renders each kind together with the key that always
// follows it.
var kindFrag = func() [numKinds][]byte {
	var frags [numKinds][]byte
	for k := range frags {
		frags[k] = []byte(`,"kind":"` + Kind(k).String() + `","t":`)
	}
	return frags
}()

// encoder carries writeJSONL's per-stream caches: pre-rendered
// `,"dev":"…"`-style fragments per ordinal, and the last rendered time
// (consecutive lifecycle records of one fault share timestamps).
type encoder struct {
	names                       nameTables
	devFrag, classFrag, sevFrag [][]byte
	lastTime                    float64
	timeBuf                     []byte
}

func (e *encoder) frag(table *[][]byte, i int, key, name string) []byte {
	for len(*table) <= i {
		*table = append(*table, nil)
	}
	if (*table)[i] == nil {
		// Names read back by ReadJSONL are outside text, so quote them.
		quoted, _ := json.Marshal(name) // a string always marshals
		(*table)[i] = append([]byte(`,"`+key+`":`), quoted...)
	}
	return (*table)[i]
}

func writeJSONL(w io.Writer, recs []Record, names nameTables) error {
	enc := encoder{names: names}
	buf := make([]byte, 0, 1<<16)
	for _, r := range recs {
		buf = enc.appendRecord(buf, r)
		if len(buf) >= 1<<16-256 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord encodes one record as a JSON line.
func (e *encoder) appendRecord(b []byte, r Record) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, uint64(r.ID), 10)
	if r.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(r.Parent), 10)
	}
	if int(r.Kind) < numKinds {
		b = append(b, kindFrag[r.Kind]...)
	} else {
		b = append(b, `,"kind":"`...)
		b = append(b, r.Kind.String()...)
		b = append(b, `","t":`...)
	}
	if r.Time != e.lastTime || e.timeBuf == nil {
		e.lastTime = r.Time
		e.timeBuf = obs.AppendFixed(e.timeBuf[:0], r.Time)
	}
	b = append(b, e.timeBuf...)
	b = append(b, e.frag(&e.devFrag, int(r.Dev), "dev", e.names.devName(r.Dev))...)
	if r.Class >= 0 {
		b = append(b, e.frag(&e.classFrag, int(r.Class), "class", e.names.className(r.Class))...)
	}
	if r.Aux != 0 {
		b = append(b, `,"aux":`...)
		b = obs.AppendFixed(b, r.Aux)
	}
	if r.Sev >= 0 {
		b = append(b, e.frag(&e.sevFrag, int(r.Sev), "sev", e.names.sevName(r.Sev))...)
	}
	if r.Ref != 0 {
		b = append(b, `,"ref":`...)
		b = strconv.AppendInt(b, int64(r.Ref), 10)
	}
	b = append(b, '}', '\n')
	return b
}

// Lane is a single-writer record buffer feeding its journal: an obs.Lane
// of records that stamps each with the journal's next causal ID. All
// methods are nil-safe.
type Lane struct {
	j    *Journal
	ring obs.Lane[Record]
}

// Record assigns the next causal ID to r, stages it, and returns the ID
// so the caller can parent subsequent records on it. Returns 0 on a nil
// lane.
//
//hot:noalloc
func (l *Lane) Record(r Record) ID {
	if l == nil {
		return 0
	}
	r.ID = ID(l.j.nextID.Add(1))
	if l.ring.Record(r) {
		l.ring.Flush()
	}
	return r.ID
}

// Flush publishes the staged records to readers. Only the writer may call
// it.
func (l *Lane) Flush() {
	if l != nil {
		l.ring.Flush()
	}
}
