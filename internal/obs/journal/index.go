package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Index is the query side of a journal: records keyed by causal ID, with
// chain walking and the paper-style MTTR phase decomposition
// (time-in-detection / time-in-dispatch / time-in-repair per device
// type). Build one with Journal.Index over a live journal's flushed
// records, NewIndex over a record slice, or ReadJSONL over a written
// stream.
type Index struct {
	recs []Record
	// dense is the case for every Journal.Index, mid-run or not: a
	// journal's flushed records carry the IDs 1..n in order, so recs[id-1]
	// IS the lookup and no map is built. byID backs Get only for read-back
	// streams (ReadJSONL) and record slices whose IDs are sparse or out of
	// order.
	dense bool
	byID  map[ID]int
	names nameTables
}

// Index snapshots the journal's flushed records into a queryable index.
// Safe to call while writers keep recording (a live /journal endpoint
// indexes the published prefix). Returns an empty index on a nil journal.
func (j *Journal) Index() *Index {
	if j == nil {
		return NewIndex(nil, nameTables{})
	}
	return NewIndex(j.Records(), j.names)
}

// NewIndex builds an index over records. The records must carry unique
// IDs; names supplies the enum tables used in summaries (zero value is
// fine — names fall back to bare ordinals).
func NewIndex(recs []Record, names nameTables) *Index {
	x := &Index{recs: recs, dense: true, names: names}
	for i, r := range recs {
		if r.ID != ID(i+1) {
			x.dense = false
			break
		}
	}
	if !x.dense {
		x.byID = make(map[ID]int, len(recs))
		for i, r := range recs {
			x.byID[r.ID] = i
		}
	}
	return x
}

// Names bundles enum name tables for NewIndex callers outside the
// journal; the zero value means bare ordinals.
func Names(dev, class, sev []string) nameTables {
	return nameTables{dev: dev, class: class, sev: sev}
}

// ReadJSONL parses a journal stream written by WriteJSONL back into an
// index. Enum names are interned in first-appearance order, so summaries
// carry the original names. Lines without an "id" field (such as the
// per-run header lines a sweep campaign stream interleaves) are skipped.
func ReadJSONL(r io.Reader) (*Index, error) {
	var (
		recs  []Record
		names nameTables
		dev   = map[string]uint8{}
		class = map[string]uint8{}
		sevs  = map[string]uint8{}
	)
	kinds := make(map[string]Kind, numKinds)
	for k := Kind(0); int(k) < numKinds; k++ {
		kinds[k.String()] = k
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var jr struct {
			ID     uint64  `json:"id"`
			Parent uint64  `json:"parent"`
			Kind   string  `json:"kind"`
			T      float64 `json:"t"`
			Dev    string  `json:"dev"`
			Class  *string `json:"class"`
			Aux    float64 `json:"aux"`
			Sev    *string `json:"sev"`
			Ref    int32   `json:"ref"`
		}
		if err := json.Unmarshal(text, &jr); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		if jr.ID == 0 {
			continue // not a journal record (campaign header line)
		}
		k, ok := kinds[jr.Kind]
		if !ok {
			return nil, fmt.Errorf("journal: line %d: unknown kind %q", line, jr.Kind)
		}
		rec := Record{
			ID: ID(jr.ID), Parent: ID(jr.Parent), Kind: k,
			Time: jr.T, Aux: jr.Aux, Ref: jr.Ref,
			Class: -1, Sev: -1,
		}
		var err error
		if rec.Dev, err = intern(&names.dev, dev, jr.Dev, math.MaxUint8+1); err != nil {
			return nil, fmt.Errorf("journal: line %d: dev: %w", line, err)
		}
		if jr.Class != nil {
			i, err := intern(&names.class, class, *jr.Class, math.MaxInt8+1)
			if err != nil {
				return nil, fmt.Errorf("journal: line %d: class: %w", line, err)
			}
			rec.Class = int8(i)
		}
		if jr.Sev != nil {
			i, err := intern(&names.sev, sevs, *jr.Sev, math.MaxInt8+1)
			if err != nil {
				return nil, fmt.Errorf("journal: line %d: sev: %w", line, err)
			}
			rec.Sev = int8(i)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return NewIndex(recs, names), nil
}

// intern maps name to a stable ordinal below limit, growing the table on
// first sight. A new name past a full table is an error: a wrapped
// ordinal would alias another name, or read as absent. So is an empty
// (or missing) name: the writer renders one as its ordinal, so it would
// not read back.
func intern(table *[]string, seen map[string]uint8, name string, limit int) (uint8, error) {
	if i, ok := seen[name]; ok {
		return i, nil
	}
	if name == "" {
		return 0, errors.New("empty name")
	}
	if len(*table) >= limit {
		return 0, fmt.Errorf("more than %d distinct names", limit)
	}
	i := uint8(len(*table))
	*table = append(*table, name)
	seen[name] = i
	return i, nil
}

// WriteJSONL writes the indexed records as one JSON object per line, in
// stored (ID) order — the same stream Journal.WriteJSONL produces, without
// re-snapshotting the journal. Callers that both write and query a
// finished journal should build the index once and do both through it.
func (x *Index) WriteJSONL(w io.Writer) error {
	return writeJSONL(w, x.recs, x.names)
}

// Len reports the number of indexed records.
func (x *Index) Len() int { return len(x.recs) }

// Records returns the indexed records in their stored (ID) order.
func (x *Index) Records() []Record { return x.recs }

// Get returns the record with the given ID.
func (x *Index) Get(id ID) (Record, bool) {
	if x.dense {
		if id == 0 || uint64(id) > uint64(len(x.recs)) {
			return Record{}, false
		}
		return x.recs[id-1], true
	}
	i, ok := x.byID[id]
	if !ok {
		return Record{}, false
	}
	return x.recs[i], true
}

// Chain returns the causal chain ending at id, root first — the
// explanation of how that record came to be. A dangling parent truncates
// the chain at the last resolvable record.
func (x *Index) Chain(id ID) []Record {
	var chain []Record
	for steps := 0; id != 0 && steps <= len(x.recs); steps++ {
		r, ok := x.Get(id)
		if !ok {
			break
		}
		chain = append(chain, r)
		id = r.Parent
	}
	// Reverse to root-first order.
	for i, jj := 0, len(chain)-1; i < jj; i, jj = i+1, jj-1 {
		chain[i], chain[jj] = chain[jj], chain[i]
	}
	return chain
}

// Complete reports whether id's causal chain resolves all the way to a
// FaultRaised root with no dangling parent links.
func (x *Index) Complete(id ID) bool {
	chain := x.Chain(id)
	return len(chain) > 0 && chain[0].Kind == FaultRaised && chain[0].Parent == 0
}

// Incidents returns every IncidentClosed record, in stored order.
func (x *Index) Incidents() []Record {
	var out []Record
	for _, r := range x.recs {
		if r.Kind == IncidentClosed {
			out = append(out, r)
		}
	}
	return out
}

// PhaseStats decomposes one device type's repair timeline the way the
// paper splits MTTR: how long faults sat in each lifecycle phase, plus
// the population counts the means are over.
type PhaseStats struct {
	// Device is the device type name.
	Device string `json:"device"`
	// Faults counts FaultRaised records.
	Faults int `json:"faults"`
	// Repairs counts automated repairs; ManualRepairs the pre-automation
	// technician fixes.
	Repairs       int `json:"repairs"`
	ManualRepairs int `json:"manual_repairs,omitempty"`
	// Escalations counts faults automation handed back to humans.
	Escalations int `json:"escalations"`
	// Incidents counts closed incidents (SEVs).
	Incidents int `json:"incidents"`
	// MeanDetectionHours is raised→detected: zero by construction in the
	// current model (monitoring detects instantaneously); the journal
	// records it so the claim is checkable rather than assumed.
	MeanDetectionHours float64 `json:"mean_detection_hours"`
	// MeanDispatchHours is the mean queueing wait of automated repairs.
	MeanDispatchHours float64 `json:"mean_dispatch_hours"`
	// MeanRepairSeconds is the mean execution time of automated repairs.
	MeanRepairSeconds float64 `json:"mean_repair_seconds"`
	// MeanResolutionHours is the mean incident resolution time.
	MeanResolutionHours float64 `json:"mean_resolution_hours"`
}

// Summary is the roll-up a journal reduces to: chain-completeness
// accounting plus the per-device-type MTTR phase decomposition.
// JSON-serializable; campaign-level summaries merge with MergeSummaries.
type Summary struct {
	// Records is the total record count; Faults/Repairs/Escalations/
	// Incidents count lifecycle roots and outcomes across all devices.
	Records     int `json:"records"`
	Faults      int `json:"faults"`
	Repairs     int `json:"repairs"`
	Escalations int `json:"escalations"`
	Incidents   int `json:"incidents"`
	// CompleteChains counts closed incidents whose causal chain resolves
	// to a FaultRaised root; Incomplete counts the rest (always 0 for a
	// Journal's index, mid-run or not, since every flushed prefix holds
	// complete chains; only a cut or sparse read-back stream has any).
	CompleteChains int `json:"complete_chains"`
	Incomplete     int `json:"incomplete_chains,omitempty"`
	// Phases is the per-device-type decomposition, ordered by device
	// ordinal.
	Phases []PhaseStats `json:"phases"`
}

// phaseAcc accumulates one device type's sums.
type phaseAcc struct {
	faults, repairs, manual, escalations, incidents int
	detectionSum, detected                          float64
	dispatchSum, repairSum                          float64
	resolutionSum                                   float64
}

// Summary computes the journal roll-up over the indexed records.
func (x *Index) Summary() Summary {
	acc := map[uint8]*phaseAcc{}
	at := func(d uint8) *phaseAcc {
		a := acc[d]
		if a == nil {
			a = &phaseAcc{}
			acc[d] = a
		}
		return a
	}
	s := Summary{Records: len(x.recs)}
	for _, r := range x.recs {
		a := at(r.Dev)
		switch r.Kind {
		case FaultRaised:
			s.Faults++
			a.faults++
		case FaultDetected:
			if p, ok := x.Get(r.Parent); ok {
				a.detectionSum += r.Time - p.Time
				a.detected++
			}
		case Dispatched:
			a.dispatchSum += r.Aux
		case Escalated:
			s.Escalations++
			a.escalations++
		case Repaired:
			s.Repairs++
			if p, ok := x.Get(r.Parent); ok && p.Kind == Dispatched {
				a.repairs++
				a.repairSum += r.Aux
			} else {
				a.manual++
			}
		case IncidentClosed:
			s.Incidents++
			a.incidents++
			a.resolutionSum += r.Aux
			if x.Complete(r.ID) {
				s.CompleteChains++
			} else {
				s.Incomplete++
			}
		}
	}
	devs := make([]int, 0, len(acc))
	for d := range acc {
		devs = append(devs, int(d))
	}
	sort.Ints(devs)
	for _, d := range devs {
		a := acc[uint8(d)]
		p := PhaseStats{
			Device:        x.names.devName(uint8(d)),
			Faults:        a.faults,
			Repairs:       a.repairs,
			ManualRepairs: a.manual,
			Escalations:   a.escalations,
			Incidents:     a.incidents,
		}
		if a.detected > 0 {
			p.MeanDetectionHours = a.detectionSum / a.detected
		}
		if a.repairs > 0 {
			p.MeanDispatchHours = a.dispatchSum / float64(a.repairs)
			p.MeanRepairSeconds = a.repairSum / float64(a.repairs)
		}
		if a.incidents > 0 {
			p.MeanResolutionHours = a.resolutionSum / float64(a.incidents)
		}
		s.Phases = append(s.Phases, p)
	}
	return s
}

// MergeSummaries combines per-run summaries into a campaign-level one:
// counts sum, phase means are re-weighted by their population counts, and
// device rows are unioned by name (ordered by first appearance across the
// inputs).
func MergeSummaries(ss []Summary) Summary {
	var out Summary
	byDev := map[string]*PhaseStats{}
	var order []string
	for _, s := range ss {
		out.Records += s.Records
		out.Faults += s.Faults
		out.Repairs += s.Repairs
		out.Escalations += s.Escalations
		out.Incidents += s.Incidents
		out.CompleteChains += s.CompleteChains
		out.Incomplete += s.Incomplete
		for _, p := range s.Phases {
			m := byDev[p.Device]
			if m == nil {
				m = &PhaseStats{Device: p.Device}
				byDev[p.Device] = m
				order = append(order, p.Device)
			}
			// Re-weight: means become sums here, divided back out below.
			detected := p.Faults // detection mean is over detected faults ≈ raised
			m.MeanDetectionHours += p.MeanDetectionHours * float64(detected)
			m.MeanDispatchHours += p.MeanDispatchHours * float64(p.Repairs)
			m.MeanRepairSeconds += p.MeanRepairSeconds * float64(p.Repairs)
			m.MeanResolutionHours += p.MeanResolutionHours * float64(p.Incidents)
			m.Faults += p.Faults
			m.Repairs += p.Repairs
			m.ManualRepairs += p.ManualRepairs
			m.Escalations += p.Escalations
			m.Incidents += p.Incidents
		}
	}
	for _, dev := range order {
		m := byDev[dev]
		if m.Faults > 0 {
			m.MeanDetectionHours /= float64(m.Faults)
		}
		if m.Repairs > 0 {
			m.MeanDispatchHours /= float64(m.Repairs)
			m.MeanRepairSeconds /= float64(m.Repairs)
		}
		if m.Incidents > 0 {
			m.MeanResolutionHours /= float64(m.Incidents)
		}
		out.Phases = append(out.Phases, *m)
	}
	return out
}
