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
// Records are pointer-free fixed-size structs (40 bytes) staged in the
// journal's one ring — an obs.Lane, the single-writer staging buffer
// published as immutable blocks that SpanRing and the timeline also use —
// so the hot path costs one counter increment and one struct store, never
// a lock, a map or an encoder. The ring flushes automatically when the
// staging buffer fills and explicitly before the run that records it
// returns (the faults driver flushes the journal at the end of Run);
// readers (Records, WriteJSONL, Index) see only flushed blocks. All of a
// run's writers share the ring, so a mid-run reader observes the IDs
// 1..n with no gaps, and every chain in that prefix is complete.
//
// # Determinism
//
// IDs are issued in recording order by the ring's one writer, the run's
// simulator goroutine, so for a fixed seed the issue order — and
// therefore the JSONL output — is bit-for-bit reproducible. Recording
// draws no randomness and reads no wall clock, so an attached journal
// never perturbs the simulation's RNG streams or outputs.
//
// All methods are safe on a nil *Journal, matching the project-wide
// observability contract: a nil journal is a no-op costing the hot paths
// nothing.
package journal

import (
	"encoding/json"
	"io"
	"strconv"

	"dcnr/internal/obs"
)

// ID is a causal record identifier, unique within one journal. IDs are
// dense, start at 1, and increase in record-issue order; 0 means "no
// record" (an absent parent, or a Record call on a nil journal).
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
	// ID is the record's causal identifier, assigned by Journal.Record.
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

// Journal is one run's causal record stream: it stamps causal IDs and
// owns the one ring the records are staged in. Construct with New; a nil
// *Journal is a valid no-op.
//
// The ring is SINGLE-WRITER, like every obs.Lane: exactly one goroutine
// may call Record / Flush at a time. Every writer of a run (the faults
// driver and the remediation engine) records on the run's simulator
// goroutine, so a journal records one run. The readers (Len, Records,
// Index, WriteJSONL) may run concurrently with the writer.
type Journal struct {
	// lastID is the last issued causal ID; only the writer touches it.
	lastID ID
	ring   obs.Lane[Record]
	// names are the enum name tables for JSONL encoding, indexed by the
	// Record ordinals and fixed at construction; missing entries fall
	// back to the bare number.
	names nameTables
}

// New returns an empty journal that encodes records with the given name
// tables: device types indexed by Record.Dev, fault classes by
// Record.Class, severities by Record.Sev. Nil tables mean bare ordinals.
func New(dev, class, sev []string) *Journal {
	return &Journal{names: nameTables{dev, class, sev}}
}

// Record assigns the next causal ID to r, stages it, and returns the ID
// so the caller can parent subsequent records on it. Returns 0 on a nil
// journal. Only the writer may call it.
//
//hot:noalloc
func (j *Journal) Record(r Record) ID {
	if j == nil {
		return 0
	}
	j.lastID++
	r.ID = j.lastID
	if j.ring.Record(r) {
		j.ring.Flush()
	}
	return r.ID
}

// Flush publishes the staged records to readers. Only the writer may call
// it.
func (j *Journal) Flush() {
	if j != nil {
		j.ring.Flush()
	}
}

// Len reports the number of flushed (reader-visible) records.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.ring.Len()
}

// Records returns every flushed record in ID order — the canonical causal
// order. Safe to call while the writer keeps recording: one writer issues
// IDs in recording order, so the flushed blocks hold exactly the IDs
// 1..n, and since every record's parent is issued before it, that prefix
// holds only complete chains.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	return j.ring.Values()
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
	return writeJSONL(w, j.Records(), j.names)
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
