package sev

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// Store holds SEV reports and answers the aggregate queries the study runs
// against its SEV database. It is safe for concurrent use.
//
// Alongside the report slice the store maintains secondary indexes —
// posting lists of report positions keyed by year, device type, severity,
// network design, and root cause, plus an ID map — so the typed query API
// (query.go) can intersect the smallest applicable lists instead of
// scanning every report. Indexes are updated under the write lock on Add,
// extended once per batch on AddAll, and rebuilt wholesale on ReadJSON.
type Store struct {
	mu      sync.RWMutex
	reports []Report
	nextID  int

	// gen counts dataset mutations (Add, AddAll, ReadJSON). Result caches
	// key on it: a bumped generation invalidates every cached aggregation.
	gen atomic.Uint64

	// byID maps report ID → position in reports.
	byID map[int]int
	// types caches the parsed device type per position so queries never
	// re-parse device names.
	types []topology.DeviceType
	// Posting lists: positions in ascending order, one list per key value.
	byYear   map[int][]int
	byType   map[topology.DeviceType][]int
	bySev    map[Severity][]int
	byDesign map[topology.Design][]int
	byCause  map[RootCause][]int
	// byStart holds every position ordered by report start time (ties in
	// position order), so pure Since/Until windows binary-search a
	// contiguous range instead of scanning the whole store.
	byStart []int
	// provenance is the causal-chain side store keyed by report ID,
	// attached by AttachJournal; it is deliberately not part of the
	// report serialization (WriteJSON stays byte-stable).
	provenance map[int]Provenance

	// Telemetry, attached by Instrument; nil fields are no-ops.
	mIndexed    *obs.Counter
	mScanned    *obs.Counter
	hPostings   *obs.Histogram
	hCandidates *obs.Histogram
}

// Instrument attaches telemetry to the store's query engine. Metrics
// registered on reg: sev_queries_indexed_total and sev_queries_scan_total
// (counters — a rising scan count flags queries with no predicate at all,
// the only shape left that must touch every report), sev_posting_list_size
// (histogram of each selected posting list's length), and
// sev_query_candidates (histogram of post-intersection candidate counts).
// reg may be nil.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == nil {
		return
	}
	s.mIndexed = reg.Counter("sev_queries_indexed_total")
	s.mScanned = reg.Counter("sev_queries_scan_total")
	s.hPostings = reg.Histogram("sev_posting_list_size",
		[]float64{1, 10, 100, 1000, 10000, 100000})
	s.hCandidates = reg.Histogram("sev_query_candidates",
		[]float64{1, 10, 100, 1000, 10000, 100000})
}

// NewStore returns an empty Store.
func NewStore() *Store {
	s := &Store{nextID: 1}
	s.resetIndexLocked(0)
	return s
}

// resetIndexLocked reinitializes every secondary index. Caller holds mu.
func (s *Store) resetIndexLocked(capacity int) {
	s.byID = make(map[int]int, capacity)
	s.types = make([]topology.DeviceType, 0, capacity)
	s.byYear = make(map[int][]int)
	s.byType = make(map[topology.DeviceType][]int)
	s.bySev = make(map[Severity][]int)
	s.byDesign = make(map[topology.Design][]int)
	s.byCause = make(map[RootCause][]int)
	s.byStart = make([]int, 0, capacity)
}

// indexPostingsLocked appends every secondary-index entry except the
// start-time index for the report at position pos. The report must
// already be validated (its device name parses). Caller holds mu.
func (s *Store) indexPostingsLocked(pos int) {
	r := &s.reports[pos]
	t, err := topology.ParseDeviceName(r.Device)
	if err != nil {
		// Unreachable for validated reports; keep types aligned anyway.
		t = topology.DeviceType(-1)
	}
	s.types = append(s.types, t)
	s.byID[r.ID] = pos
	s.byYear[r.Year] = append(s.byYear[r.Year], pos)
	s.bySev[r.Severity] = append(s.bySev[r.Severity], pos)
	if t >= 0 {
		s.byType[t] = append(s.byType[t], pos)
		s.byDesign[t.Design()] = append(s.byDesign[t.Design()], pos)
	}
	// A report may list the same cause twice; the posting list stays
	// deduplicated so RootCause(c).Count() counts the report once (the
	// multi-counting of CountByRootCause happens over EffectiveRootCauses).
	for _, c := range r.EffectiveRootCauses() {
		if list := s.byCause[c]; len(list) > 0 && list[len(list)-1] == pos {
			continue
		}
		s.byCause[c] = append(s.byCause[c], pos)
	}
}

// indexLocked appends index entries for the report at position pos — the
// single-report path Add takes. Caller holds mu.
func (s *Store) indexLocked(pos int) {
	s.indexPostingsLocked(pos)
	r := &s.reports[pos]
	// Sorted insert into the time index. Simulated reports arrive in
	// near-chronological order, so the search usually lands at the end and
	// the copy moves nothing.
	i := sort.Search(len(s.byStart), func(i int) bool {
		return s.reports[s.byStart[i]].Start > r.Start
	})
	s.byStart = append(s.byStart, 0)
	copy(s.byStart[i+1:], s.byStart[i:])
	s.byStart[i] = pos
}

// indexBatchLocked indexes positions [from, len(reports)) in one pass:
// posting lists are appended per report, but the start-time index is
// built by sorting the new positions once and merging them with the
// existing run — O(k log k + n) per batch instead of the O(n·k) the
// per-report sorted insert degrades to on out-of-order input. Caller
// holds mu.
func (s *Store) indexBatchLocked(from int) {
	for pos := from; pos < len(s.reports); pos++ {
		s.indexPostingsLocked(pos)
	}
	added := make([]int, 0, len(s.reports)-from)
	for pos := from; pos < len(s.reports); pos++ {
		added = append(added, pos)
	}
	// Stable by start time: equal starts keep position order, matching the
	// insert-after-equals rule of the single-report path.
	sort.SliceStable(added, func(i, j int) bool {
		return s.reports[added[i]].Start < s.reports[added[j]].Start
	})
	if from == 0 || len(s.byStart) == 0 {
		s.byStart = added
		return
	}
	merged := make([]int, 0, len(s.byStart)+len(added))
	i, j := 0, 0
	for i < len(s.byStart) && j < len(added) {
		// Existing entries win ties: every added position is greater, and
		// the single-report path inserts after equal starts.
		if s.reports[s.byStart[i]].Start <= s.reports[added[j]].Start {
			merged = append(merged, s.byStart[i])
			i++
		} else {
			merged = append(merged, added[j])
			j++
		}
	}
	merged = append(merged, s.byStart[i:]...)
	merged = append(merged, added[j:]...)
	s.byStart = merged
}

// startRangeLocked returns the positions of reports with Start in the
// half-open window [since, until), ordered by start time; a nil bound is
// unbounded on that side and a NaN bound matches nothing. Caller holds mu.
func (s *Store) startRangeLocked(since, until *float64) []int {
	lo := 0
	if since != nil {
		lo = sort.Search(len(s.byStart), func(i int) bool {
			return s.reports[s.byStart[i]].Start >= *since
		})
	}
	hi := len(s.byStart)
	if until != nil {
		// Negated so a NaN bound selects nothing, as it does for since.
		hi = sort.Search(len(s.byStart), func(i int) bool {
			return !(s.reports[s.byStart[i]].Start < *until)
		})
	}
	if hi < lo {
		hi = lo
	}
	return s.byStart[lo:hi]
}

// Add validates r, assigns it an ID, and appends it. It returns the
// assigned ID.
func (s *Store) Add(r Report) (int, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ID = s.nextID
	s.nextID++
	s.reports = append(s.reports, r)
	s.indexLocked(len(s.reports) - 1)
	s.gen.Add(1)
	return r.ID, nil
}

// AddAll validates and appends a batch of reports, building the
// secondary indexes once per batch instead of once per report. A report
// with ID 0 is assigned a fresh ID; an explicit ID is preserved and must
// not collide with the store or with the rest of the batch. On any
// validation or duplicate-ID error the store is left unchanged. It
// returns the IDs in input order.
func (s *Store) AddAll(batch []Report) ([]int, error) {
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", batch[i].ID, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Reject every explicit-ID collision before mutating anything.
	seen := make(map[int]bool, len(batch))
	for i := range batch {
		id := batch[i].ID
		if id == 0 {
			continue
		}
		if _, taken := s.byID[id]; taken || seen[id] {
			return nil, fmt.Errorf("sev: duplicate report ID %d in batch", id)
		}
		seen[id] = true
	}
	from := len(s.reports)
	ids := make([]int, len(batch))
	for i := range batch {
		r := batch[i]
		if r.ID == 0 {
			// Dodge explicit IDs later in the batch: nextID always exceeds
			// every ID already stored, but not ones still to be appended.
			for seen[s.nextID] {
				s.nextID++
			}
			r.ID = s.nextID
			s.nextID++
		} else if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
		ids[i] = r.ID
		s.reports = append(s.reports, r)
	}
	s.indexBatchLocked(from)
	s.gen.Add(1)
	return ids, nil
}

// Generation returns the dataset generation: a counter bumped by every
// successful Add, AddAll, and ReadJSON. Responses cached against a
// generation are valid exactly while Generation still returns it.
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
	if pos, ok := s.byID[id]; ok {
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
	enc := json.NewEncoder(w)
	return enc.Encode(s.reports)
}

// ReadJSON replaces the store's contents with the reports decoded from r.
// Each report is re-validated; IDs are preserved. Reports are sorted into
// ascending ID order regardless of their order in the input, and datasets
// containing duplicate IDs or IDs below 1 are rejected.
func (s *Store) ReadJSON(r io.Reader) error {
	reports, err := DecodeDataset(r)
	if err != nil {
		return err
	}
	maxID := 0
	if len(reports) > 0 {
		maxID = reports[len(reports)-1].ID
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reports = reports
	s.nextID = maxID + 1
	s.resetIndexLocked(len(reports))
	// The wholesale form of AddAll's batch path: one index build for the
	// whole dataset instead of a sorted insert per report.
	s.indexBatchLocked(0)
	s.gen.Add(1)
	return nil
}

// DecodeDataset is the one dataset loader behind Store.ReadJSON and the
// query daemon's append-only load (DecodeDataset, then AddAll): it decodes
// a JSON array of reports, validates each, rejects duplicate IDs and IDs
// below 1 (every writer numbers reports from 1, so an ID-less report is
// not a dataset entry), and returns the reports in ascending ID order.
func DecodeDataset(r io.Reader) ([]Report, error) {
	var reports []Report
	if err := json.NewDecoder(r).Decode(&reports); err != nil {
		return nil, fmt.Errorf("sev: decoding dataset: %w", err)
	}
	seen := make(map[int]bool, len(reports))
	for i := range reports {
		id := reports[i].ID
		if err := reports[i].Validate(); err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", id, err)
		}
		if id < 1 {
			return nil, fmt.Errorf("sev: report ID %d in dataset, want >= 1", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("sev: duplicate report ID %d in dataset", id)
		}
		seen[id] = true
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	return reports, nil
}
