package sev

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// Store holds SEV reports and answers the aggregate queries the study runs
// against its SEV database. It is safe for concurrent use.
//
// Alongside the report slice the store keeps a cell index (see Query):
// one cell per (year, device type, severity, set of effective root
// causes), with its report count, the times its reports list each cause,
// the earliest and latest start among them, and its positions, threaded
// through one per-position next column. Each (year, device type,
// severity) slot that holds a report also keeps a tally, the sum of its
// cells' counts, so a count that filters on no cause and no window reads
// one tally per slot and no cell. A report makes at most one cell and one
// tally, so the index stays linear in the reports whatever years arrive
// (Year comes unvalidated through POST /ingest), and a slot lists at most
// 127 cells, one per cause set. A report finds its cell in one map probe.
// After Grow, an Add into an existing cell allocates nothing.
//
// IDs strictly ascend with position: AddAll and AppendJSON reject an
// explicit ID at or below the largest held, and ReadJSON and AppendJSON
// sort their dataset, so All and WriteJSON are in ID order, and an ID is
// found by position alone. While IDs are dense — the report at position i
// has ID i+1, which holds for every store-assigned ID — a report's
// position is its ID minus one, and otherwise a binary search over the
// positions finds it (see posLocked).
type Store struct {
	mu      sync.RWMutex
	reports []Report
	nextID  int

	// gen counts dataset mutations (Add, AddAll, AppendJSON, ReadJSON).
	// Result caches key on it: a bumped generation invalidates every
	// cached aggregation.
	gen atomic.Uint64

	// The cell index: per position, the report's start time, its
	// resolution time and the next position in its cell (-1 after its
	// last); the cells and the slot tallies, cells[0] and tallies[0] being
	// sentinels; per year, each slot's first cell and tally; and the cell
	// of each (year, slot, cause set).
	start   []float64
	res     []float64
	next    []int32
	cells   []cell
	tallies []counts
	years   []yearCells
	yearPos map[int]int32
	cellOf  map[cellKey]int32
	// provenance is the causal-chain side store keyed by report ID,
	// attached by AttachJournal; it is deliberately not part of the
	// report serialization (WriteJSON stays byte-stable).
	provenance map[int]Provenance

	// Telemetry, attached by Instrument; nil fields are no-ops.
	mIndexed    *obs.Counter
	mScanned    *obs.Counter
	hCandidates *obs.Histogram
}

// Instrument attaches telemetry to the store's query engine, on reg (which
// may be nil): the counters sev_queries_indexed_total and
// sev_queries_scan_total, and sev_query_candidates, a histogram of the
// reports in the cells each indexed query selects (see Query).
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == nil {
		return
	}
	s.mIndexed = reg.Counter("sev_queries_indexed_total")
	s.mScanned = reg.Counter("sev_queries_scan_total")
	s.hCandidates = reg.Histogram("sev_query_candidates",
		[]float64{1, 10, 100, 1000, 10000, 100000})
}

// NewStore returns an empty Store.
func NewStore() *Store {
	s := new(Store)
	s.resetLocked(nil, nil)
	return s
}

// resetLocked replaces the store's contents, provenance included, with
// reports, which ascend by ID and whose device types are types, and
// builds the cell index over them. Caller holds mu.
func (s *Store) resetLocked(reports []Report, types []uint8) {
	n := len(reports)
	s.reports, s.nextID, s.provenance = reports, 1, nil
	if n > 0 {
		s.nextID = reports[n-1].ID + 1
	}
	s.start, s.res, s.next = make([]float64, 0, n), make([]float64, 0, n), make([]int32, 0, n)
	s.cells, s.tallies, s.years = make([]cell, 1), make([]counts, 1), nil
	s.yearPos, s.cellOf = make(map[int]int32), make(map[cellKey]int32)
	for pos := range reports {
		s.indexLocked(pos, topology.DeviceType(types[pos]))
	}
}

// A year's cells hang off numSlots slots, one per (device type, severity)
// pair; slotOf, slotType and slotSeverity map a pair to its slot and back.
const (
	numTypes = int(topology.BBR) + 1 // the device types a valid name parses to
	numSlots = numTypes * 3
)

func slotOf(t topology.DeviceType, v Severity) int { return int(t)*3 + int(v) - 1 }
func slotType(slot int) topology.DeviceType        { return topology.DeviceType(slot / 3) }
func slotSeverity(slot int) Severity               { return Severity(slot%3 + 1) }

// counts is a number of reports and the times they list each effective
// root cause: a cell's own, or a slot's tally of its cells.
type counts struct {
	n      int32
	causes [numRootCauses]int32
}

// add counts one report listing the effective root causes rcs.
func (c *counts) add(rcs []RootCause) {
	c.n++
	for _, rc := range rcs {
		c.causes[rc]++
	}
}

// cell is one (year, device type, severity, cause set) cell of the index.
type cell struct {
	counts
	lo, hi     float64 // earliest and latest start of its reports
	head, tail int32   // first and last position
	link       int32   // next cell of the same year and slot, 0 at the end
	tally      int32   // its slot's tally
	mask       uint8   // the cause set, bit c for cause c
	dup        bool    // some report lists a cause more than once
}

// yearCells holds one year's index: each slot's first cell and its
// tally, or 0 for a slot with no report.
type yearCells struct {
	year  int
	slots [numSlots]int32
	tally [numSlots]int32
}

// cellKey names a cell: its year, slot and cause set.
type cellKey struct {
	year       int
	slot, mask uint8
}

// indexLocked adds the report at position pos, which must be the highest
// position indexed so far and whose device type validation parsed as t,
// to its cell and its slot's tally. Caller holds mu.
func (s *Store) indexLocked(pos int, t topology.DeviceType) {
	r := &s.reports[pos]
	rcs, mask := r.EffectiveRootCauses(), uint8(0)
	for _, c := range rcs {
		mask |= 1 << c
	}
	s.next = append(s.next, -1)
	s.start = append(s.start, r.Start)
	s.res = append(s.res, r.Resolution)
	key := cellKey{r.Year, uint8(slotOf(t, r.Severity)), mask}
	ci, ok := s.cellOf[key]
	if !ok {
		ci = s.newCellLocked(key, pos)
	} else {
		s.next[s.cells[ci].tail] = int32(pos)
	}
	c := &s.cells[ci]
	c.add(rcs)
	s.tallies[c.tally].add(rcs)
	c.tail, c.dup = int32(pos), c.dup || len(rcs) > bits.OnesCount8(mask)
	c.lo, c.hi = min(c.lo, r.Start), max(c.hi, r.Start)
}

// newCellLocked makes the empty cell key names, starting at position pos,
// at the head of its slot's list, giving the slot a tally and the year its
// slots if they have none, and returns its index. Caller holds mu.
func (s *Store) newCellLocked(key cellKey, pos int) int32 {
	yi, ok := s.yearPos[key.year]
	if !ok {
		yi = int32(len(s.years))
		s.years = append(s.years, yearCells{year: key.year})
		s.yearPos[key.year] = yi
	}
	y := &s.years[yi]
	if y.tally[key.slot] == 0 {
		y.tally[key.slot] = int32(len(s.tallies))
		s.tallies = append(s.tallies, counts{})
	}
	ci := int32(len(s.cells))
	s.cells = append(s.cells, cell{
		lo: s.start[pos], hi: s.start[pos], head: int32(pos),
		link: y.slots[key.slot], tally: y.tally[key.slot], mask: key.mask,
	})
	y.slots[key.slot] = ci
	s.cellOf[key] = ci
	return ci
}

// posLocked returns the position of the report with the given ID: ID-1
// while IDs are dense there, otherwise a binary search, which IDs
// ascending with position make valid. Caller holds mu.
func (s *Store) posLocked(id int) (int, bool) {
	if id >= 1 && id <= len(s.reports) && s.reports[id-1].ID == id {
		return id - 1, true
	}
	pos := sort.Search(len(s.reports), func(i int) bool { return s.reports[i].ID >= id })
	return pos, pos < len(s.reports) && s.reports[pos].ID == id
}

// Grow reserves room for n more reports, so the next n Adds append
// without reallocating. The data does not change, so neither does
// Generation. Grow panics if n is negative.
func (s *Store) Grow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growLocked(n)
}

// growLocked is Grow. Caller holds mu.
func (s *Store) growLocked(n int) {
	s.reports = slices.Grow(s.reports, n)
	s.start = slices.Grow(s.start, n)
	s.res = slices.Grow(s.res, n)
	s.next = slices.Grow(s.next, n)
}

// Add validates r, assigns it an ID, and appends it. It returns the
// assigned ID.
func (s *Store) Add(r Report) (int, error) {
	t, err := r.validate()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.appendLocked(&r, id, t)
	s.gen.Add(1)
	return id, nil
}

// AddAll validates and appends a batch of reports under one write lock
// and one generation bump. IDs are append-only, so position order stays
// ID order: a report with ID 0 is assigned the next ID, and an explicit
// ID is preserved and must exceed every ID before it, in the store and
// earlier in the batch. On any validation or ID error the store is left
// unchanged. It returns the IDs in input order.
func (s *Store) AddAll(batch []Report) ([]int, error) {
	// The parsed types take a byte per report, not an 8-byte DeviceType:
	// that pays for the res column, so a load peaks at the heap it did
	// before the column, and a large one crosses no extra GC goal.
	types := make([]uint8, len(batch))
	for i := range batch {
		t, err := batch[i].validate()
		if err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", batch[i].ID, err)
		}
		types[i] = uint8(t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Assign and check every ID before mutating anything. nextID is one
	// above the largest ID held.
	ids := make([]int, len(batch))
	last := s.nextID - 1
	for i := range batch {
		id := batch[i].ID
		switch {
		case id == 0:
			id = last + 1
		case id <= last:
			return nil, fmt.Errorf("sev: report ID %d in batch is not above ID %d (IDs are append-only)", id, last)
		}
		ids[i] = id
		last = id
	}
	s.growLocked(len(batch))
	for i := range batch {
		s.appendLocked(&batch[i], ids[i], topology.DeviceType(types[i]))
	}
	s.nextID = last + 1
	s.gen.Add(1)
	return ids, nil
}

// appendLocked appends r with ID id, its device type as validation
// parsed it being t, and indexes it. The caller has checked r and id,
// sets nextID and the generation, and holds mu.
func (s *Store) appendLocked(r *Report, id int, t topology.DeviceType) {
	s.reports = append(s.reports, *r)
	s.reports[len(s.reports)-1].ID = id
	s.indexLocked(len(s.reports)-1, t)
}

// Generation returns the dataset generation: a counter bumped by every
// successful Add, AddAll, AppendJSON and ReadJSON. Responses cached
// against a generation are valid exactly while Generation still returns
// it.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Len returns the number of stored reports.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.reports)
}

// Get returns the report with the given ID.
func (s *Store) Get(id int) (Report, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if pos, ok := s.posLocked(id); ok {
		return s.reports[pos], nil
	}
	return Report{}, fmt.Errorf("sev: no report with ID %d", id)
}

// All returns a copy of every report in ID order.
func (s *Store) All() []Report {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Report(nil), s.reports...)
}

// WriteJSON streams the reports to w as a JSON array.
func (s *Store) WriteJSON(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return json.NewEncoder(w).Encode(s.reports)
}

// ReadJSON replaces the store's contents with the dataset decoded from r
// (see AppendJSON for what a dataset may hold). Provenance attached to
// the old contents is dropped with them.
func (s *Store) ReadJSON(r io.Reader) error {
	reports, types, err := decodeDataset(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked(reports, types)
	s.gen.Add(1)
	return nil
}

// AppendJSON appends the dataset decoded from r (the sevs.json shape
// dcsim writes) as one batch with one generation bump: the query
// daemon's load. A dataset is a JSON array of valid reports with distinct
// IDs of at least 1 (every writer numbers reports from 1, so an ID-less
// report is not a dataset entry), in any order; they are stored in
// ascending ID order with their IDs preserved. Each report is validated
// once. On a decoding or validation error, or an ID at or below the
// largest stored, the store is left unchanged.
func (s *Store) AppendJSON(r io.Reader) error {
	reports, types, err := decodeDataset(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(reports); n > 0 {
		if id := reports[0].ID; id < s.nextID {
			return fmt.Errorf("sev: report ID %d in dataset is not above ID %d (IDs are append-only)", id, s.nextID-1)
		}
		s.growLocked(n)
		for i := range reports {
			s.appendLocked(&reports[i], reports[i].ID, topology.DeviceType(types[i]))
		}
		s.nextID = reports[n-1].ID + 1
	}
	s.gen.Add(1)
	return nil
}

// decodeDataset decodes and validates a dataset for ReadJSON and
// AppendJSON, returning its reports in ascending ID order and each
// report's device type as its validation parsed it.
func decodeDataset(r io.Reader) ([]Report, []uint8, error) {
	var reports []Report
	if err := json.NewDecoder(r).Decode(&reports); err != nil {
		return nil, nil, fmt.Errorf("sev: decoding dataset: %w", err)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	types := make([]uint8, len(reports))
	for i := range reports {
		id := reports[i].ID
		t, err := reports[i].validate()
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("sev: report %d invalid: %w", id, err)
		case id < 1:
			return nil, nil, fmt.Errorf("sev: report ID %d in dataset, want >= 1", id)
		case i > 0 && id == reports[i-1].ID:
			return nil, nil, fmt.Errorf("sev: duplicate report ID %d in dataset", id)
		}
		types[i] = uint8(t)
	}
	return reports, types, nil
}
