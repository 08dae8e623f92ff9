package sev

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// shuffledDataset returns a JSON dataset whose report IDs are present but
// deliberately out of ascending order.
func shuffledDataset() string {
	devices := []string{
		"rsw001.cl001.dc1.ra",
		"csa001.dc1.ra",
		"core001.dc1.ra",
		"fsw001.pod001.dc2.rb",
	}
	ids := []int{7, 2, 9, 4}
	var sb strings.Builder
	sb.WriteString("[")
	for i, id := range ids {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id":%d,"severity":3,"device":%q,"start":%d,"duration":1,"resolution":2,"year":%d}`,
			id, devices[i], 100*i, 2011+i)
	}
	sb.WriteString("]")
	return sb.String()
}

// Regression: Get used to binary-search the report slice by ID, so a
// dataset loaded in non-ascending ID order made existing IDs unfindable.
func TestReadJSONShuffledIDsGet(t *testing.T) {
	s := NewStore()
	if err := s.ReadJSON(strings.NewReader(shuffledDataset())); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{7, 2, 9, 4} {
		r, err := s.Get(id)
		if err != nil {
			t.Errorf("Get(%d) after shuffled load: %v", id, err)
			continue
		}
		if r.ID != id {
			t.Errorf("Get(%d) returned report %d", id, r.ID)
		}
	}
	if _, err := s.Get(3); err == nil {
		t.Error("Get(3) should fail: ID not in dataset")
	}
	// All() must come back in ascending ID order regardless of load order.
	all := s.All()
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Fatalf("All() not in ID order: %d before %d", all[i-1].ID, all[i].ID)
		}
	}
	// nextID continues after the max loaded ID.
	if id, err := s.Add(Report{Severity: Sev3, Device: "rsw002.cl001.dc1.ra", Duration: 1, Resolution: 2, Year: 2017}); err != nil || id != 10 {
		t.Errorf("Add after shuffled load: id=%d err=%v, want 10", id, err)
	}
}

// TestReadJSONRejectsDuplicateIDs: both dataset loaders — Store.ReadJSON
// and the daemon's DecodeDataset + AddAll — reject duplicate IDs and IDs
// below 1 and load nothing. The daemon's loader once assigned fresh IDs
// to ID-less reports that Store.ReadJSON rejected as duplicates of ID 0.
func TestReadJSONRejectsDuplicateIDs(t *testing.T) {
	report := func(id string) string {
		return `{` + id + `"severity":3,"device":"rsw001.cl001.dc1.ra","start":1,"duration":1,"resolution":2,"year":2011}`
	}
	cases := []struct{ name, data, want string }{
		{"duplicate", "[" + report(`"id":3,`) + "," + report(`"id":3,`) + "]", "duplicate report ID 3"},
		{"two ID-less", "[" + report("") + "," + report("") + "]", "report ID 0"},
		{"one ID-less", "[" + report("") + "]", "report ID 0"},
		{"negative", "[" + report(`"id":-2,`) + "]", "report ID -2"},
	}
	for _, tc := range cases {
		s := NewStore()
		appended := NewStore()
		for loader, err := range map[string]error{
			"Store.ReadJSON":       s.ReadJSON(strings.NewReader(tc.data)),
			"DecodeDataset+AddAll": loadAppend(appended, []byte(tc.data)),
		} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s error = %v, want one naming %q", tc.name, loader, err, tc.want)
			}
		}
		if s.Len() != 0 || appended.Len() != 0 {
			t.Errorf("%s: rejected dataset partially loaded", tc.name)
		}
	}
}

// loadAppend is the query daemon's load path: DecodeDataset, then AddAll
// onto whatever s already holds.
func loadAppend(s *Store, data []byte) error {
	reports, err := DecodeDataset(bytes.NewReader(data))
	if err != nil {
		return err
	}
	_, err = s.AddAll(reports)
	return err
}

// batchReports builds n valid reports spread across years, devices,
// severities, and causes, with ID 0 (store-assigned).
func batchReports(n, base int) []Report {
	devices := []string{
		"rsw001.cl001.dc1.ra", "csw001.cl001.dc1.ra", "csa001.dc1.ra",
		"esw001.cl001.dc1.ra", "ssw001.cl001.dc1.ra",
	}
	out := make([]Report, n)
	for i := range out {
		k := base + i
		out[i] = Report{
			Severity:   Severity(1 + k%3),
			Device:     devices[k%len(devices)],
			Start:      float64((k * 37) % (n * 5)),
			Duration:   1,
			Resolution: float64(2 + k%7),
			Year:       2011 + k%7,
			RootCauses: []RootCause{RootCause(k % numRootCauses)},
		}
	}
	return out
}

// TestAddAllMatchesAdd pins the batched ingest path against the
// single-report path: same IDs, same report order, same index behavior
// (window queries exercise the merged start-time index).
func TestAddAllMatchesAdd(t *testing.T) {
	reports := batchReports(200, 0)
	one := NewStore()
	for _, r := range reports {
		if _, err := one.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	batch := NewStore()
	// Split across several batches so the byStart merge path runs with a
	// non-empty existing run.
	for i := 0; i < len(reports); i += 64 {
		end := min(i+64, len(reports))
		if _, err := batch.AddAll(reports[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(batch.All()), fmt.Sprint(one.All()); got != want {
		t.Fatal("AddAll and Add produced different stores")
	}
	for _, win := range [][2]float64{{0, 100}, {37, 612}, {500, 1000}} {
		got := batch.Query().Since(win[0]).Until(win[1]).Count()
		want := one.Query().Since(win[0]).Until(win[1]).Count()
		if got != want {
			t.Errorf("window [%g,%g): AddAll store counts %d, Add store %d", win[0], win[1], got, want)
		}
	}
	if got, want := fmt.Sprint(batch.Query().Starts()), fmt.Sprint(one.Query().Starts()); got != want {
		t.Error("Starts diverged between AddAll and Add stores")
	}
	if g := batch.Generation(); g != 4 {
		t.Errorf("generation after 4 batches = %d, want 4", g)
	}
}

// TestStoreAddAllIDs pins AddAll's ID contract: explicit IDs are
// preserved, a duplicate is rejected with nothing ingested, and fresh
// assignments skip the explicit IDs.
func TestStoreAddAllIDs(t *testing.T) {
	s := NewStore()
	ids, err := s.AddAll(batchReports(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id <= 0 || seen[id] {
			t.Fatalf("assigned IDs not unique/positive: %v", ids)
		}
		seen[id] = true
	}
	explicit := batchReports(2, 20)
	explicit[0].ID = 100
	explicit[1].ID = 101
	if _, err := s.AddAll(explicit); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Get(100); err != nil || r.ID != 100 {
		t.Errorf("Get(100) = %+v, %v", r, err)
	}
	dup := batchReports(2, 30)
	dup[1].ID = 100
	_, err = s.AddAll(dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate report ID 100") {
		t.Fatalf("duplicate explicit ID not rejected: %v", err)
	}
	if n := s.Len(); n != 12 {
		t.Errorf("Len after rejected batch = %d, want 12", n)
	}
	// A batch mixing ID-less reports with an explicit ID the counter has
	// not reached yet: the fresh IDs dodge it.
	mixed := batchReports(3, 40)
	mixed[2].ID = 103
	more, err := s.AddAll(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(more) != "[102 104 103]" {
		t.Errorf("mixed batch IDs = %v, want [102 104 103]", more)
	}
}

// TestStoreGenerationRejectedBatch pins the cache-invalidation contract:
// every successful ingest bumps the generation exactly once; a rejected
// batch does not.
func TestStoreGenerationRejectedBatch(t *testing.T) {
	s := NewStore()
	if g := s.Generation(); g != 0 {
		t.Fatalf("fresh generation = %d", g)
	}
	if _, err := s.AddAll(batchReports(4, 0)); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation after ingest = %d, want 1", g)
	}
	bad := batchReports(1, 5)
	bad[0].Device = ""
	if _, err := s.AddAll(bad); err == nil {
		t.Fatal("invalid report accepted")
	}
	dup := batchReports(1, 6)
	dup[0].ID = 1
	if _, err := s.AddAll(dup); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if g := s.Generation(); g != 1 {
		t.Errorf("generation bumped by rejected batch: %d", g)
	}
}

// TestStoreIngestWhileQuerying races AddAll batches against aggregations
// on every query path; run under go test -race. Each reader's total count
// must never go backwards.
func TestStoreIngestWhileQuerying(t *testing.T) {
	s := NewStore()
	if _, err := s.AddAll(batchReports(100, 0)); err != nil {
		t.Fatal(err)
	}
	const (
		writers = 2
		batches = 10
		readers = 4
	)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for b := 0; b < batches; b++ {
				if _, err := s.AddAll(batchReports(20, 1000+w*10000+b*100)); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.Query().Count()
				if n < last {
					t.Errorf("reader %d: count went backwards (%d -> %d)", r, last, n)
					return
				}
				last = n
				switch r % 4 {
				case 0:
					s.Query().Year(2013).CountBySeverity()
				case 1:
					s.Query().DeviceType(topology.RSW).Count()
				case 2:
					s.Query().Since(10).Until(400).Count()
				case 3:
					s.Query().ResolutionsByYear()
				}
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got, want := s.Query().Count(), 100+writers*batches*20; got != want {
		t.Errorf("final count = %d, want %d", got, want)
	}
}

// TestWindowBoundsAgreeAcrossPaths checks that the three query paths —
// the start-time index (window only), the posting lists plus the residual
// window filter, and the sequential scan predicate — agree on NaN and
// infinite bounds. A NaN bound matches nothing; ±Inf behave as numbers.
func TestWindowBoundsAgreeAcrossPaths(t *testing.T) {
	s := NewStore()
	if _, err := s.AddAll(batchReports(100, 0)); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	all2013 := s.Query().Year(2013).Count()
	cases := []struct {
		name       string
		window     func(Query) Query
		all, y2013 int
	}{
		{"since NaN", func(q Query) Query { return q.Since(nan) }, 0, 0},
		{"until NaN", func(q Query) Query { return q.Until(nan) }, 0, 0},
		{"since NaN until +Inf", func(q Query) Query { return q.Since(nan).Until(inf) }, 0, 0},
		{"since -Inf until NaN", func(q Query) Query { return q.Since(-inf).Until(nan) }, 0, 0},
		{"since -Inf", func(q Query) Query { return q.Since(-inf) }, 100, all2013},
		{"until +Inf", func(q Query) Query { return q.Until(inf) }, 100, all2013},
		{"since -Inf until +Inf", func(q Query) Query { return q.Since(-inf).Until(inf) }, 100, all2013},
		{"since +Inf", func(q Query) Query { return q.Since(inf) }, 0, 0},
		{"until -Inf", func(q Query) Query { return q.Until(-inf) }, 0, 0},
	}
	for _, tc := range cases {
		timeIndex := tc.window(s.Query()).Count()
		postings := tc.window(s.Query()).Year(2013).Count()
		scanAll := scanCount(s, func(r Report) bool { return tc.window(s.Query()).matches(&r) })
		scan2013 := scanCount(s, func(r Report) bool { return tc.window(s.Query().Year(2013)).matches(&r) })
		if timeIndex != tc.all || scanAll != tc.all {
			t.Errorf("%s: time index %d, scan %d, want %d", tc.name, timeIndex, scanAll, tc.all)
		}
		if postings != tc.y2013 || scan2013 != tc.y2013 {
			t.Errorf("%s: posting lists %d, scan %d, want %d (Year 2013)", tc.name, postings, scan2013, tc.y2013)
		}
	}
}

// indexStore builds a store whose reports spread across every indexed
// dimension: years, device types (and hence designs), severities, and
// single/multi/empty root-cause sets.
func indexStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	devices := []string{
		"rsw001.cl001.dc1.ra",
		"csa001.dc1.ra",
		"csw001.cl001.dc1.ra",
		"fsw001.pod001.dc2.rb",
		"ssw001.pod001.dc2.rb",
		"esw001.pod001.dc2.rb",
		"core001.dc1.ra",
	}
	causes := [][]RootCause{
		{Hardware},
		{Maintenance, Configuration},
		nil,
		{Bug, Bug}, // duplicate cause within one report
		{Accident, Capacity},
	}
	for i := 0; i < 60; i++ {
		r := Report{
			Severity:   Severity(i%3 + 1),
			Device:     devices[i%len(devices)],
			RootCauses: causes[i%len(causes)],
			Start:      float64(i * 500),
			Duration:   1,
			Resolution: float64(2 + i%7),
			Year:       2011 + i%7,
		}
		if _, err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// scanCount recomputes a query result by brute force over All(), the
// ground truth the posting-list intersection must agree with.
func scanCount(s *Store, match func(Report) bool) int {
	n := 0
	for _, r := range s.All() {
		if match(r) {
			n++
		}
	}
	return n
}

func TestIndexedQueriesMatchScan(t *testing.T) {
	s := indexStore(t)
	typeOf := func(r Report) topology.DeviceType {
		dt, err := r.DeviceType()
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	hasCause := func(r Report, c RootCause) bool {
		for _, rc := range r.EffectiveRootCauses() {
			if rc == c {
				return true
			}
		}
		return false
	}
	for year := 2011; year <= 2017; year++ {
		for _, sv := range Severities {
			got := s.Query().Year(year).Severity(sv).Count()
			want := scanCount(s, func(r Report) bool { return r.Year == year && r.Severity == sv })
			if got != want {
				t.Errorf("Year(%d).Severity(%v).Count() = %d, want %d", year, sv, got, want)
			}
		}
		for _, dt := range topology.IntraDCTypes {
			got := s.Query().Year(year).DeviceType(dt).Count()
			want := scanCount(s, func(r Report) bool { return r.Year == year && typeOf(r) == dt })
			if got != want {
				t.Errorf("Year(%d).DeviceType(%v).Count() = %d, want %d", year, dt, got, want)
			}
		}
	}
	for _, c := range RootCauses {
		got := s.Query().RootCause(c).Count()
		want := scanCount(s, func(r Report) bool { return hasCause(r, c) })
		if got != want {
			t.Errorf("RootCause(%v).Count() = %d, want %d", c, got, want)
		}
	}
	for _, d := range []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric} {
		got := s.Query().Design(d).Severity(Sev2).Count()
		want := scanCount(s, func(r Report) bool { return r.Design() == d && r.Severity == Sev2 })
		if got != want {
			t.Errorf("Design(%v).Severity(2).Count() = %d, want %d", d, got, want)
		}
	}
	// Index narrowing combined with the residual time window.
	got := s.Query().Year(2013).Since(1000).Until(20000).Count()
	want := scanCount(s, func(r Report) bool { return r.Year == 2013 && r.Start >= 1000 && r.Start < 20000 })
	if got != want {
		t.Errorf("windowed indexed count = %d, want %d", got, want)
	}
	// Missing index keys yield empty results, not errors.
	if n := s.Query().Year(1999).Count(); n != 0 {
		t.Errorf("Year(1999).Count() = %d, want 0", n)
	}
}

// A report listing the same cause twice matches the cause predicate once
// but multi-counts in CountByRootCause, exactly like the scan semantics.
func TestDuplicateCauseSemantics(t *testing.T) {
	s := NewStore()
	r := Report{Severity: Sev3, Device: "rsw001.cl001.dc1.ra",
		RootCauses: []RootCause{Bug, Bug}, Duration: 1, Resolution: 2, Year: 2015}
	if _, err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	if n := s.Query().RootCause(Bug).Count(); n != 1 {
		t.Errorf("RootCause(Bug).Count() = %d, want 1", n)
	}
	if n := s.Query().CountByRootCause()[Bug]; n != 2 {
		t.Errorf("CountByRootCause()[Bug] = %d, want 2 (per-occurrence)", n)
	}
}

func TestGroupedQueriesMatchPerKeyQueries(t *testing.T) {
	s := indexStore(t)
	byYearSev := s.Query().CountByYearSeverity()
	for year := 2011; year <= 2017; year++ {
		for _, sv := range Severities {
			if got, want := byYearSev[year][sv], s.Query().Year(year).Severity(sv).Count(); got != want {
				t.Errorf("CountByYearSeverity[%d][%v] = %d, want %d", year, sv, got, want)
			}
		}
	}
	byYearType := s.Query().CountByYearDeviceType()
	for year := 2011; year <= 2017; year++ {
		for _, dt := range topology.IntraDCTypes {
			if got, want := byYearType[year][dt], s.Query().Year(year).DeviceType(dt).Count(); got != want {
				t.Errorf("CountByYearDeviceType[%d][%v] = %d, want %d", year, dt, got, want)
			}
		}
	}
	byYearDesign := s.Query().CountByYearDesign()
	for year := 2011; year <= 2017; year++ {
		for _, d := range []topology.Design{topology.DesignCluster, topology.DesignFabric} {
			if got, want := byYearDesign[year][d], s.Query().Year(year).Design(d).Count(); got != want {
				t.Errorf("CountByYearDesign[%d][%v] = %d, want %d", year, d, got, want)
			}
		}
	}
	bySevType := s.Query().Year(2014).CountBySeverityDeviceType()
	for _, sv := range Severities {
		for _, dt := range topology.IntraDCTypes {
			if got, want := bySevType[sv][dt], s.Query().Year(2014).Severity(sv).DeviceType(dt).Count(); got != want {
				t.Errorf("CountBySeverityDeviceType[%v][%v] = %d, want %d", sv, dt, got, want)
			}
		}
	}
	byTypeRes := s.Query().ResolutionsByDeviceType()
	for _, dt := range topology.IntraDCTypes {
		if got, want := len(byTypeRes[dt]), len(s.Query().DeviceType(dt).Resolutions()); got != want {
			t.Errorf("ResolutionsByDeviceType[%v] has %d samples, want %d", dt, got, want)
		}
	}
	byYearRes := s.Query().ResolutionsByYear()
	for year := 2011; year <= 2017; year++ {
		if got, want := len(byYearRes[year]), s.Query().Year(year).Count(); got != want {
			t.Errorf("ResolutionsByYear[%d] has %d samples, want %d", year, got, want)
		}
	}
}

// The indexes must stay consistent while writers add reports concurrently
// with readers aggregating — run under go test -race.
func TestStoreConcurrentAddAndQuery(t *testing.T) {
	s := NewStore()
	const writers, perWriter, readers = 4, 200, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				r := validReport()
				r.Year = 2011 + j%7
				r.Severity = Severity(j%3 + 1)
				if _, err := s.Add(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if s.Query().Year(2015).Count() < 0 {
					t.Error("negative count")
					return
				}
				byYearSev := s.Query().CountByYearSeverity()
				for _, row := range byYearSev {
					for _, n := range row {
						if n < 0 {
							t.Error("negative grouped count")
							return
						}
					}
				}
				// ID 1 exists as soon as any Add has landed.
				if s.Len() > 0 {
					if _, err := s.Get(1); err != nil {
						t.Errorf("Get(1) with non-empty store: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := s.Len(), writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := s.Query().Count(), writers*perWriter; got != want {
		t.Fatalf("indexed total = %d, want %d", got, want)
	}
	// Every assigned ID resolves through the ID index.
	for id := 1; id <= writers*perWriter; id++ {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
	}
}

func TestQueryPathCounters(t *testing.T) {
	s := indexStore(t)
	reg := obs.NewRegistry()
	s.Instrument(reg)

	s.Query().Year(2013).Count()                      // indexed: one posting list
	s.Query().Year(2013).Severity(Sev2).Count()       // indexed: two posting lists
	s.Query().Since(1000).Until(5000).Count()         // window only → time index
	s.Query().Count()                                 // no predicate → sequential scan
	s.Query().Since(0).Year(2013).Severity(1).Count() // window + index → indexed

	snap := reg.Snapshot()
	if got := snap.Counters["sev_queries_indexed_total"]; got != 4 {
		t.Errorf("indexed queries = %d, want 4", got)
	}
	if got := snap.Counters["sev_queries_scan_total"]; got != 1 {
		t.Errorf("scan queries = %d, want 1", got)
	}
	// Posting lists observed: 1 + 2 + 2 = 5 across the posting-list
	// queries (the time index has no posting list).
	if got := snap.Histograms["sev_posting_list_size"].Count; got != 5 {
		t.Errorf("posting list observations = %d, want 5", got)
	}
	if got := snap.Histograms["sev_query_candidates"].Count; got != 4 {
		t.Errorf("candidate observations = %d, want 4", got)
	}
	// An un-instrumented store still answers identically.
	s2 := indexStore(t)
	if s2.Query().Year(2013).Count() != s.Query().Year(2013).Count() {
		t.Error("instrumentation changed query results")
	}
}

// TestWindowQueriesUseTimeIndex pins the former scan trap: a query narrowed
// only by Since/Until must take the start-time index, leaving
// sev_queries_scan_total untouched, and must agree with the brute-force
// predicate even when reports were added out of chronological order.
func TestWindowQueriesUseTimeIndex(t *testing.T) {
	s := NewStore()
	// Starts deliberately out of order, with a tie at 500.
	for i, start := range []float64{3000, 500, 9000, 500, 0, 7000, 1500} {
		r := Report{
			Severity: Sev3, Device: "rsw001.cl001.dc1.ra",
			Start: start, Duration: 1, Resolution: 2, Year: 2011 + i%3,
		}
		if _, err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)

	windows := []struct{ since, until float64 }{
		{0, 10000},   // everything
		{500, 3000},  // interior, includes the tied starts
		{501, 3001},  // bounds between starts
		{9000, 9000}, // empty: until == since
		{8000, 1000}, // degenerate: until < since
	}
	for _, w := range windows {
		got := s.Query().Since(w.since).Until(w.until).Reports()
		want := 0
		for _, r := range s.All() {
			if r.Start >= w.since && r.Start < w.until {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("[%v,%v) returned %d reports, want %d", w.since, w.until, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].ID <= got[i-1].ID {
				t.Errorf("[%v,%v) results out of ID order", w.since, w.until)
			}
		}
	}
	// One-sided windows ride the same index.
	if got := s.Query().Since(1500).Count(); got != 4 {
		t.Errorf("Since(1500).Count() = %d, want 4", got)
	}
	if got := s.Query().Until(1500).Count(); got != 3 {
		t.Errorf("Until(1500).Count() = %d, want 3", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["sev_queries_scan_total"]; got != 0 {
		t.Errorf("window queries scanned %d times, want 0 (time index)", got)
	}
	if got := snap.Counters["sev_queries_indexed_total"]; got != int64(len(windows)+2) {
		t.Errorf("indexed queries = %d, want %d", got, len(windows)+2)
	}

	// The index survives a ReadJSON rebuild from shuffled input.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Query().Since(500).Until(3000).Count(), s.Query().Since(500).Until(3000).Count(); got != want {
		t.Errorf("rebuilt index count = %d, want %d", got, want)
	}
}

func TestWriteReadRoundTripAfterShuffledLoad(t *testing.T) {
	s := NewStore()
	if err := s.ReadJSON(strings.NewReader(shuffledDataset())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("round trip lost reports: %d != %d", s2.Len(), s.Len())
	}
}
