package sev

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dcnr/internal/topology"
)

// FuzzReadJSON checks the two dataset loaders against each other: on any
// input Store.ReadJSON and the query daemon's path (Store.AppendJSON on a
// fresh store) accept or reject together, and on accept they hold the
// same reports and resolution samples, and both answer Get and
// SetProvenance exactly for the IDs they hold (checkIDLookups). The
// checked-in corpus
// (testdata/fuzz/FuzzReadJSON) includes the ID-less datasets the loaders
// once disagreed on.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		errStore := st.ReadJSON(bytes.NewReader(data))
		appended := NewStore()
		errAppend := loadAppend(appended, data)
		if (errStore == nil) != (errAppend == nil) {
			t.Fatalf("loaders disagree: Store.ReadJSON = %v, Store.AppendJSON = %v", errStore, errAppend)
		}
		if errStore != nil {
			return
		}
		want := st.All()
		if got := appended.All(); !reflect.DeepEqual(want, got) {
			t.Fatalf("loaded datasets differ:\nReadJSON   %+v\nAppendJSON %+v", want, got)
		}
		res := make([]float64, len(want))
		for i := range want {
			res[i] = want[i].Resolution
		}
		for loader, s := range map[string]*Store{"ReadJSON": st, "AppendJSON": appended} {
			if got := s.Query().Resolutions(); !slices.Equal(got, res) {
				t.Fatalf("%s: Resolutions %v, reports hold %v", loader, got, res)
			}
		}
		checkIDLookups(t, st, "ReadJSON")
		checkIDLookups(t, appended, "AppendJSON")
	})
}

// FuzzQueryMatchesScan decodes its input as a script of Add and AddAll
// calls, each followed by one query (see ingestAndCheck), and checks every
// result method of each query against the brute-force Query.matches scan.
// The checked-in corpus (testdata/fuzz/FuzzQueryMatchesScan) holds a
// duplicate-cause report under a query with every predicate set, and a
// batch of cause-less reports with equal starts.
func FuzzQueryMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step rescans the store, so an execution costs the square
		// of the input's length. Longer inputs are passed over rather than
		// cut short: they would never add coverage but would still be
		// minimized byte by byte, which stalls the fuzzer for minutes.
		if len(data) > 2048 {
			return
		}
		src := byteSource(data)
		ingestAndCheck(t, NewStore(), &src, false)
	})
}

// storeModel is the naive reference FuzzStoreOps checks the store
// against: the reports in ID order in a plain slice, provenance in a map.
type storeModel struct {
	reports []Report
	prov    map[int]Provenance
}

func (m *storeModel) maxID() int {
	if len(m.reports) == 0 {
		return 0
	}
	return m.reports[len(m.reports)-1].ID
}

func (m *storeModel) held(id int) (Report, bool) {
	for _, r := range m.reports {
		if r.ID == id {
			return r, true
		}
	}
	return Report{}, false
}

// addAll applies AddAll's contract: a zero ID takes the next one, an
// explicit ID must exceed every ID before it, and a rejected batch
// changes nothing.
func (m *storeModel) addAll(batch []Report) bool {
	last := m.maxID()
	out := make([]Report, len(batch))
	for i, r := range batch {
		switch {
		case r.ID == 0:
			r.ID = last + 1
		case r.ID <= last:
			return false
		}
		out[i] = r
		last = r.ID
	}
	m.reports = append(m.reports, out...)
	return true
}

// FuzzStoreOps decodes its input as a script of store operations and runs
// each against the store and storeModel: Add; AddAll of ID-less reports;
// AddAll with explicit IDs (one byte each, 0 for none); Grow; ReadJSON of
// the model's own reports marshalled to JSON, some dropped and the order
// possibly reversed; and SetProvenance on a held ID, 0 or max+1. After
// every operation the two must agree on Len, All, Get and Provenance (on
// every held ID, 0 and max+1), on one grouped count and on the resolution
// samples, whole and by year, read from the store's resolution column,
// Generation must move by exactly one when the data changed and stay put
// otherwise, and the index must hold its invariants (checkIndex).
// The first two seeds are the two defects this harness was written for:
// ReadJSON keeping the old dataset's provenance, and AddAll appending an
// explicit ID below the largest out of ID order.
func FuzzStoreOps(f *testing.F) {
	report := []byte{1, 10, 7, 3, 1, 2, 0} // diffReport's layout, no causes
	script := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	op := func(code byte, args ...byte) []byte { return append([]byte{code}, args...) }
	add := op(0, report...)
	// Add, SetProvenance(1), ReadJSON of the same report 1.
	f.Add(script(add, op(5, 0), op(4, 0)))
	// Add ×3, AddAll{10}, AddAll{5}.
	f.Add(script(add, add, add, op(2, 0, 10), report, op(2, 0, 5), report))
	// Add, ReadJSON of it, Add of a report with another resolution time:
	// a ReadJSON that kept the old resolution column fails here.
	f.Add(script(add, op(4, 0), op(0, 1, 10, 7, 3, 1, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step rechecks the whole store, so an execution costs the
		// square of the input's length; longer inputs would stall the
		// fuzzer in minimization (see FuzzQueryMatchesScan).
		if len(data) > 512 {
			return
		}
		runStoreOps(t, data)
	})
}

// runStoreOps runs FuzzStoreOps' script data against a fresh store and
// model.
func runStoreOps(t *testing.T, data []byte) {
	src := byteSource(data)
	s := NewStore()
	m := &storeModel{prov: map[int]Provenance{}}
	for step := 0; len(src) > 0; step++ {
		code := src.next()
		gen := s.Generation()
		changed := false
		var what string
		switch code % 6 {
		case 0:
			what = "Add"
			r := diffReport(&src)
			id, err := s.Add(r)
			if err != nil {
				t.Fatalf("step %d: Add: %v", step, err)
			}
			r.ID = m.maxID() + 1
			if id != r.ID {
				t.Fatalf("step %d: Add assigned %d, model %d", step, id, r.ID)
			}
			m.reports = append(m.reports, r)
			changed = true
		case 1, 2:
			explicit := code%6 == 2
			what = fmt.Sprintf("AddAll(explicit=%v)", explicit)
			batch := make([]Report, 1+src.next()%8)
			for i := range batch {
				id := 0
				if explicit {
					id = src.next()
				}
				batch[i] = diffReport(&src)
				batch[i].ID = id
			}
			_, err := s.AddAll(batch)
			changed = m.addAll(batch)
			if (err == nil) != changed {
				t.Fatalf("step %d: AddAll(%v) err = %v, model accepts = %v", step, reportIDs(batch), err, changed)
			}
		case 3:
			what = "Grow"
			s.Grow(src.next() % 40)
		case 4:
			what = "ReadJSON"
			k := src.next()
			var kept []Report
			for i, r := range m.reports {
				if k%4 == 0 || i%(k%4+1) != 0 {
					kept = append(kept, r)
				}
			}
			order := slices.Clone(kept)
			if k&128 != 0 {
				slices.Reverse(order)
			}
			data, err := json.Marshal(order)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ReadJSON(bytes.NewReader(data)); err != nil {
				t.Fatalf("step %d: ReadJSON of the model's reports: %v", step, err)
			}
			m.reports, m.prov = kept, map[int]Provenance{}
			changed = true
		case 5:
			what = "SetProvenance"
			b := src.next() % (len(m.reports) + 2)
			id := m.maxID() + 1
			switch {
			case b < len(m.reports):
				id = m.reports[b].ID
			case b == len(m.reports):
				id = 0
			}
			p := Provenance{SEV: id, ResolutionHours: float64(step)}
			_, ok := m.held(id)
			if got := s.SetProvenance(id, p); got != ok {
				t.Fatalf("step %d: SetProvenance(%d) = %v, model %v", step, id, got, ok)
			}
			if ok {
				m.prov[id] = p
			}
		}
		label := fmt.Sprintf("step %d (%s)", step, what)
		want := gen
		if changed {
			want++
		}
		if s.Generation() != want {
			t.Fatalf("%s: generation %d → %d, want %d", label, gen, s.Generation(), want)
		}
		checkAgainstModel(t, s, m, Severity(1+(code>>3)%3), code&32 != 0, label)
		if err := checkIndex(s); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// checkIndex checks the sums and bounds the index keeps beside its
// positions against the positions themselves: every cell's count and
// cause occurrences are those of its reports and its start bounds their
// least and greatest start, and every slot's tally is the sum of its
// cells' counts.
func checkIndex(s *Store) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, y := range s.years {
		for slot := range numSlots {
			var sum counts
			for ci := y.slots[slot]; ci != 0; ci = s.cells[ci].link {
				c := &s.cells[ci]
				var own counts
				lo, hi := math.Inf(1), math.Inf(-1)
				for p := c.head; p >= 0; p = s.next[p] {
					own.add(s.reports[p].EffectiveRootCauses())
					lo, hi = min(lo, s.start[p]), max(hi, s.start[p])
				}
				if own != c.counts || lo != c.lo || hi != c.hi {
					return fmt.Errorf("year %d slot %d cell %d: counts %+v, starts [%v, %v]; its positions give %+v, [%v, %v]",
						y.year, slot, ci, c.counts, c.lo, c.hi, own, lo, hi)
				}
				if c.tally != y.tally[slot] {
					return fmt.Errorf("year %d slot %d cell %d: tally %d, slot's %d", y.year, slot, ci, c.tally, y.tally[slot])
				}
				sum.n += own.n
				for rc, k := range own.causes {
					sum.causes[rc] += k
				}
			}
			if got := s.tallies[y.tally[slot]]; got != sum {
				return fmt.Errorf("year %d slot %d: tally %+v, its cells sum to %+v", y.year, slot, got, sum)
			}
		}
	}
	return nil
}

// reportIDs lists the IDs of batch, for failure messages.
func reportIDs(batch []Report) []int {
	out := make([]int, len(batch))
	for i := range batch {
		out[i] = batch[i].ID
	}
	return out
}

// checkAgainstModel compares s with m: Len, All, Get and Provenance on
// every held ID, 0 and max+1, and CountByYearDeviceType, Resolutions and
// ResolutionsByYear, filtered to severity sv when filter is set.
func checkAgainstModel(t *testing.T, s *Store, m *storeModel, sv Severity, filter bool, label string) {
	t.Helper()
	if s.Len() != len(m.reports) {
		t.Fatalf("%s: Len %d, model %d", label, s.Len(), len(m.reports))
	}
	if all := s.All(); len(all)+len(m.reports) > 0 && !reflect.DeepEqual(all, m.reports) {
		t.Fatalf("%s: All IDs %v, model %v", label, reportIDs(all), reportIDs(m.reports))
	}
	byID := make(map[int]Report, len(m.reports))
	probes := []int{0, m.maxID() + 1}
	for _, r := range m.reports {
		byID[r.ID] = r
		probes = append(probes, r.ID)
	}
	for _, id := range probes {
		want, held := byID[id]
		got, err := s.Get(id)
		if (err == nil) != held || held && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Get(%d) = %+v, %v; model holds it: %v", label, id, got, err, held)
		}
		wantP, hasP := m.prov[id]
		if gotP, ok := s.Provenance(id); ok != hasP || ok && !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("%s: Provenance(%d) = %+v, %v; model %+v, %v", label, id, gotP, ok, wantP, hasP)
		}
	}
	q := s.Query()
	if filter {
		q = q.Severity(sv)
	}
	want := map[int]map[topology.DeviceType]int{}
	var res []float64
	resByYear := map[int][]float64{}
	for _, r := range m.reports {
		if filter && r.Severity != sv {
			continue
		}
		dt, _ := r.DeviceType()
		nested(want, r.Year)[dt]++
		res = append(res, r.Resolution)
		resByYear[r.Year] = append(resByYear[r.Year], r.Resolution)
	}
	if got := q.CountByYearDeviceType(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CountByYearDeviceType = %v, model %v", label, got, want)
	}
	if got := q.Resolutions(); !slices.Equal(got, res) {
		t.Fatalf("%s: Resolutions = %v, model %v", label, got, res)
	}
	if got := q.ResolutionsByYear(); !reflect.DeepEqual(got, resByYear) {
		t.Fatalf("%s: ResolutionsByYear = %v, model %v", label, got, resByYear)
	}
}
