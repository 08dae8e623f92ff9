package sev

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// checkIDLookups checks Get and SetProvenance against a map built from
// All(): every held ID resolves to its report, and 0, -1, max+1 and the
// neighbours of every held ID resolve only if held.
func checkIDLookups(t *testing.T, s *Store, label string) {
	t.Helper()
	held := map[int]Report{}
	maxID := 0
	for _, r := range s.All() {
		held[r.ID] = r
		maxID = max(maxID, r.ID)
	}
	probes := []int{0, -1, maxID + 1}
	for id := range held {
		probes = append(probes, id, id-1, id+1)
	}
	for _, id := range probes {
		want, ok := held[id]
		got, err := s.Get(id)
		switch {
		case ok && err != nil:
			t.Fatalf("%s: Get(%d) = %v, want the held report", label, id, err)
		case ok && got.ID != id:
			t.Fatalf("%s: Get(%d) returned report %d", label, id, got.ID)
		case ok && got.Title != want.Title:
			t.Fatalf("%s: Get(%d) title %q, want %q", label, id, got.Title, want.Title)
		case !ok && err == nil:
			t.Fatalf("%s: Get(%d) found report %d, want none", label, id, got.ID)
		}
		if accepted := s.SetProvenance(id, Provenance{SEV: id}); accepted != ok {
			t.Fatalf("%s: SetProvenance(%d) = %v, want %v", label, id, accepted, ok)
		}
	}
}

// idReports returns valid reports carrying the given IDs, each titled by
// its ID so a lookup that lands on the wrong position shows.
func idReports(ids ...int) []Report {
	out := make([]Report, len(ids))
	for i, id := range ids {
		out[i] = validReport()
		out[i].ID = id
		out[i].Title = fmt.Sprintf("report %d", id)
	}
	return out
}

// TestDenseAndSparseIDs walks the store through both ID regimes: dense
// (positions looked up as ID-1) until an explicit ID breaks the sequence,
// sparse (binary search past the break) from then on, and back to dense
// when ReadJSON loads a dense dataset.
func TestDenseAndSparseIDs(t *testing.T) {
	dataset := func(ids ...int) []byte {
		data, err := json.Marshal(idReports(ids...))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	s := NewStore()
	for _, step := range []struct {
		name    string
		apply   func() error
		wantIDs []int
	}{
		{"Add ×3", func() error {
			for i := 0; i < 3; i++ {
				if _, err := s.Add(validReport()); err != nil {
					return err
				}
			}
			return nil
		}, []int{1, 2, 3}},
		{"AddAll explicit 10", func() error {
			_, err := s.AddAll(idReports(10))
			return err
		}, []int{1, 2, 3, 10}},
		{"Add after sparse", func() error {
			id, err := s.Add(validReport())
			if err == nil && id != 11 {
				t.Errorf("Add after ID 10 assigned %d, want 11", id)
			}
			return err
		}, []int{1, 2, 3, 10, 11}},
		{"AddAll duplicate 2", func() error {
			gen := s.Generation()
			if _, err := s.AddAll(idReports(12, 2)); err == nil {
				t.Error("AddAll accepted a duplicate of ID 2")
			}
			if s.Generation() != gen {
				t.Error("rejected AddAll bumped the generation")
			}
			return nil
		}, []int{1, 2, 3, 10, 11}},
		{"ReadJSON dense", func() error {
			return s.ReadJSON(bytes.NewReader(dataset(3, 1, 2)))
		}, []int{1, 2, 3}},
		{"ReadJSON sparse", func() error {
			return s.ReadJSON(bytes.NewReader(dataset(5, 2)))
		}, []int{2, 5}},
	} {
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		var ids []int
		for _, r := range s.All() {
			ids = append(ids, r.ID)
		}
		if !slices.Equal(ids, step.wantIDs) {
			t.Fatalf("%s: store holds IDs %v, want %v", step.name, ids, step.wantIDs)
		}
		checkIDLookups(t, s, step.name)
	}
}

// TestGrowReserves pins Grow's contract: it changes neither Len nor
// Generation, and the next n Adds append without moving the backing
// arrays.
func TestGrowReserves(t *testing.T) {
	const n = 100
	s := NewStore()
	if _, err := s.Add(validReport()); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	s.Grow(n)
	if s.Len() != 1 || s.Generation() != gen {
		t.Fatalf("Grow changed Len to %d and Generation to %d; want 1 and %d", s.Len(), s.Generation(), gen)
	}
	reports, start, next := &s.reports[0], &s.start[0], &s.next[0]
	for i := 0; i < n; i++ {
		if _, err := s.Add(validReport()); err != nil {
			t.Fatal(err)
		}
	}
	if &s.reports[0] != reports || &s.start[0] != start || &s.next[0] != next {
		t.Errorf("%d Adds after Grow(%d) moved the backing arrays", n, n)
	}
}

// TestAddAllRejectsIDsBelowMax: an explicit ID below the store's largest
// was once appended at the end, so All came out of ID order and a
// WriteJSON → ReadJSON round trip reordered every position. IDs are
// append-only now: the batch is rejected and the store is unchanged.
func TestAddAllRejectsIDsBelowMax(t *testing.T) {
	s := NewStore()
	for i := 0; i < 3; i++ {
		if _, err := s.Add(validReport()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddAll(idReports(10)); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	if _, err := s.AddAll(idReports(5)); err == nil {
		t.Error("AddAll accepted ID 5 below the largest ID 10")
	}
	if s.Generation() != gen {
		t.Error("rejected AddAll bumped the generation")
	}
	var ids []int
	for _, r := range s.All() {
		ids = append(ids, r.ID)
	}
	if want := []int{1, 2, 3, 10}; !slices.Equal(ids, want) {
		t.Fatalf("store holds IDs %v, want %v", ids, want)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded := NewStore()
	if err := reloaded.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(reloaded.Query().Starts(), s.Query().Starts()) || !reflect.DeepEqual(reloaded.All(), s.All()) {
		t.Error("WriteJSON → ReadJSON round trip changed the store")
	}
}

// TestReadJSONDropsProvenance: ReadJSON once kept the provenance side
// store, so after a reload Provenance(id) returned the chain attached to
// the old dataset's report with that ID.
func TestReadJSONDropsProvenance(t *testing.T) {
	s := NewStore()
	if _, err := s.Add(validReport()); err != nil {
		t.Fatal(err)
	}
	if !s.SetProvenance(1, Provenance{SEV: 1, ResolutionHours: 7}) {
		t.Fatal("SetProvenance(1) rejected")
	}
	other := idReports(1)
	other[0].Title = "a different report 1"
	data, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadJSON(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.Provenance(1); ok {
		t.Errorf("Provenance(1) after ReadJSON = %+v, want none", p)
	}
}
