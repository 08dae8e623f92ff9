package sev

import (
	"encoding/json"
	"fmt"
	"io"
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
// Alongside the report slice the store maintains secondary indexes —
// posting lists of report positions keyed by year, device type, severity,
// network design, and root cause — so the typed query API
// (query.go) can intersect the applicable lists instead of scanning every
// report; a query with no set-valued predicate (none at all, or only a
// Since/Until window) scans. A posting list is a word-compressed bitset
// (see postings): only the nonzero 64-bit words over store positions are
// kept, so a list costs at most one (index, word) pair per posting and the
// whole index stays linear in the number of reports however many distinct
// keys arrive. Indexes are extended under the write lock on Add and
// AddAll, and rebuilt wholesale on ReadJSON; every path appends positions
// in ascending order, so only a list's last word ever changes.
//
// IDs strictly ascend with position: AddAll rejects an explicit ID at or
// below the largest held, and ReadJSON sorts its dataset, so All and
// WriteJSON are in ID order, and an ID is found by position alone. While
// IDs are dense — the report at position i has ID i+1, which holds for
// every store-assigned ID — a report's position is its ID minus one, and
// otherwise a binary search over the positions finds it (see posLocked).
type Store struct {
	mu      sync.RWMutex
	reports []Report
	nextID  int

	// gen counts dataset mutations (Add, AddAll, ReadJSON). Result caches
	// key on it: a bumped generation invalidates every cached aggregation.
	gen atomic.Uint64

	// types caches the parsed device type per position so queries never
	// re-parse device names.
	types []topology.DeviceType
	// Posting lists, one per key value.
	byYear   map[int]*postings
	byType   map[topology.DeviceType]*postings
	bySev    map[Severity]*postings
	byDesign map[topology.Design]*postings
	byCause  map[RootCause]*postings
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
// (counters — a rising scan count flags queries with no set-valued
// predicate, the shapes that touch every report), sev_posting_list_size
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
	s.types = make([]topology.DeviceType, 0, capacity)
	s.byYear = make(map[int]*postings)
	s.byType = make(map[topology.DeviceType]*postings)
	s.bySev = make(map[Severity]*postings)
	s.byDesign = make(map[topology.Design]*postings)
	s.byCause = make(map[RootCause]*postings)
}

// postings is a posting list stored as a word-compressed bitset over store
// positions: idx holds the indexes (position / 64) of the nonzero words in
// ascending order and words the words themselves, so a list never holds
// more than one (index, word) pair per posting. n counts the postings.
type postings struct {
	idx   []int32
	words []uint64
	n     int
}

// add sets position pos. Positions arrive in ascending order, so pos lands
// in the last word or in a new one after it; setting a bit twice is a
// no-op, which is how a report listing the same cause twice is posted once.
func (p *postings) add(pos int) {
	w, bit := int32(pos>>6), uint64(1)<<(pos&63)
	if last := len(p.idx) - 1; last >= 0 && p.idx[last] == w {
		if p.words[last]&bit == 0 {
			p.words[last] |= bit
			p.n++
		}
		return
	}
	p.idx = append(p.idx, w)
	p.words = append(p.words, bit)
	p.n++
}

// post adds pos to key k's list in m, creating the list on first use.
func post[K comparable](m map[K]*postings, k K, pos int) {
	p := m[k]
	if p == nil {
		p = new(postings)
		m[k] = p
	}
	p.add(pos)
}

// indexPostingsLocked adds every secondary-index entry for the report at
// position pos, which must be the highest position indexed so far. The
// report must already be validated (its device name parses). Caller holds
// mu.
func (s *Store) indexPostingsLocked(pos int) {
	r := &s.reports[pos]
	t, err := topology.ParseDeviceName(r.Device)
	if err != nil {
		// Unreachable for validated reports; keep types aligned anyway.
		t = topology.DeviceType(-1)
	}
	s.types = append(s.types, t)
	post(s.byYear, r.Year, pos)
	post(s.bySev, r.Severity, pos)
	if t >= 0 {
		post(s.byType, t, pos)
		post(s.byDesign, t.Design(), pos)
	}
	// A report listing the same cause twice is posted once, so
	// RootCause(c).Count() counts it once (the multi-counting of
	// CountByRootCause happens over EffectiveRootCauses).
	for _, c := range r.EffectiveRootCauses() {
		post(s.byCause, c, pos)
	}
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
	s.reports = slices.Grow(s.reports, n)
	s.types = slices.Grow(s.types, n)
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
	s.indexPostingsLocked(len(s.reports) - 1)
	s.gen.Add(1)
	return r.ID, nil
}

// AddAll validates and appends a batch of reports under one write lock
// and one generation bump. IDs are append-only, so position order stays
// ID order: a report with ID 0 is assigned the next ID, and an explicit
// ID is preserved and must exceed every ID before it, in the store and
// earlier in the batch. On any validation or ID error the store is left
// unchanged. It returns the IDs in input order.
func (s *Store) AddAll(batch []Report) ([]int, error) {
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", batch[i].ID, err)
		}
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
	from := len(s.reports)
	s.reports = slices.Grow(s.reports, len(batch))
	for i := range batch {
		r := batch[i]
		r.ID = ids[i]
		s.reports = append(s.reports, r)
	}
	s.nextID = last + 1
	for pos := from; pos < len(s.reports); pos++ {
		s.indexPostingsLocked(pos)
	}
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
	enc := json.NewEncoder(w)
	return enc.Encode(s.reports)
}

// ReadJSON replaces the store's contents with the reports decoded from r.
// Each report is re-validated; IDs are preserved. Reports are sorted into
// ascending ID order regardless of their order in the input, and datasets
// containing duplicate IDs or IDs below 1 are rejected. Provenance
// attached to the old contents is dropped with them.
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
	s.provenance = nil
	s.resetIndexLocked(len(reports))
	for pos := range s.reports {
		s.indexPostingsLocked(pos)
	}
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
	for i := range reports {
		id := reports[i].ID
		if err := reports[i].Validate(); err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", id, err)
		}
		if id < 1 {
			return nil, fmt.Errorf("sev: report ID %d in dataset, want >= 1", id)
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	for i := 1; i < len(reports); i++ {
		if reports[i].ID == reports[i-1].ID {
			return nil, fmt.Errorf("sev: duplicate report ID %d in dataset", reports[i].ID)
		}
	}
	return reports, nil
}
