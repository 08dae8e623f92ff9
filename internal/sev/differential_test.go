package sev

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dcnr/internal/simrand"
	"dcnr/internal/topology"
)

// byteSource hands out the bytes of an input one at a time, then zeros,
// so any byte string decodes to a valid sequence of reports, batches and
// queries.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// diffDevices names one device of every type the store indexes.
var diffDevices = []string{
	"rsw001.cl001.dc1.ra", "csw001.cl001.dc1.ra", "csa001.dc1.ra",
	"fsw001.pod001.dc2.rb", "ssw001.pod001.dc2.rb", "esw001.pod001.dc2.rb",
	"core001.dc1.ra",
}

var diffDesigns = []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric}

// diffReport decodes one report. One draw in 64 puts it in a year outside
// 2011–2017 and another one in 64 on a Core device, so those keys' cells
// are sparse enough to skip whole bitset words. Starts fall on a coarse
// grid, so equal starts are common; a report carries zero to three causes,
// duplicates included.
func diffReport(src *byteSource) Report {
	r := Report{Severity: Severity(1 + src.next()%3)}
	if b := src.next(); b < 4 {
		r.Year = []int{2009, 2010, 2018, 2019}[b]
	} else {
		r.Year = 2011 + b%7
	}
	if b := src.next(); b < 4 {
		r.Device = diffDevices[len(diffDevices)-1]
	} else {
		r.Device = diffDevices[b%(len(diffDevices)-1)]
	}
	r.Start = float64(src.next()%32) * 10
	r.Duration = float64(src.next() % 4)
	r.Resolution = r.Duration + float64(src.next()%5)
	for c := src.next() % 4; c > 0; c-- {
		r.RootCauses = append(r.RootCauses, RootCause(src.next()%numRootCauses))
	}
	return r
}

// diffQuery sets the predicates named by the low seven bits of mask (year,
// device type, severity, design, root cause, since, until), each to a
// value decoded from src. Window bounds fall on and between the starts.
func diffQuery(s *Store, mask int, src *byteSource) Query {
	q := s.Query()
	if mask&1 != 0 {
		q = q.Year(2009 + src.next()%11)
	}
	if mask&2 != 0 {
		q = q.DeviceType(topology.IntraDCTypes[src.next()%len(topology.IntraDCTypes)])
	}
	if mask&4 != 0 {
		q = q.Severity(Severity(1 + src.next()%3))
	}
	if mask&8 != 0 {
		q = q.Design(diffDesigns[src.next()%len(diffDesigns)])
	}
	if mask&16 != 0 {
		// The top three byte values name causes outside the enum, which
		// match nothing.
		c := RootCause(src.next())
		if c >= 253 {
			c = []RootCause{-1, RootCause(numRootCauses), 99}[c-253]
		} else {
			c %= RootCause(numRootCauses)
		}
		q = q.RootCause(c)
	}
	if mask&32 != 0 {
		q = q.Since(float64(src.next()%70) * 5)
	}
	if mask&64 != 0 {
		q = q.Until(float64(src.next()%70) * 5)
	}
	return q
}

// matches is the brute-force predicate the index is checked against:
// every filter of q applied to one report. The window comparisons are
// negated so a NaN bound matches nothing.
func (q Query) matches(r *Report) bool {
	switch {
	case q.year != nil && r.Year != *q.year,
		q.since != nil && !(r.Start >= *q.since),
		q.until != nil && !(r.Start < *q.until),
		q.severity != nil && r.Severity != *q.severity,
		q.design != nil && r.Design() != *q.design:
		return false
	}
	if q.deviceType != nil {
		if t, err := r.DeviceType(); err != nil || t != *q.deviceType {
			return false
		}
	}
	if q.rootCause != nil {
		return slices.Contains(r.EffectiveRootCauses(), *q.rootCause)
	}
	return true
}

// queryResults runs every result method of q.
func queryResults(q Query) map[string]any {
	return map[string]any{
		"Reports":                   q.Reports(),
		"Count":                     q.Count(),
		"CountByDeviceType":         q.CountByDeviceType(),
		"CountBySeverity":           q.CountBySeverity(),
		"CountByYear":               q.CountByYear(),
		"CountByRootCause":          q.CountByRootCause(),
		"CountBySeverityDeviceType": q.CountBySeverityDeviceType(),
		"CountByYearSeverity":       q.CountByYearSeverity(),
		"CountByYearDeviceType":     q.CountByYearDeviceType(),
		"CountByYearDesign":         q.CountByYearDesign(),
		"Resolutions":               q.Resolutions(),
		"ResolutionsByDeviceType":   q.ResolutionsByDeviceType(),
		"ResolutionsByYear":         q.ResolutionsByYear(),
		"Starts":                    q.Starts(),
	}
}

// scanResults computes what queryResults must return for q by brute
// force: Query.matches over every report of All(), then the grouping done
// report by report.
func scanResults(s *Store, q Query) map[string]any {
	var (
		matched     []Report
		resolutions []float64
		starts      []float64
	)
	byType := map[topology.DeviceType]int{}
	bySev := map[Severity]int{}
	byYear := map[int]int{}
	byCause := map[RootCause]int{}
	bySevType := map[Severity]map[topology.DeviceType]int{}
	byYearSev := map[int]map[Severity]int{}
	byYearType := map[int]map[topology.DeviceType]int{}
	byYearDesign := map[int]map[topology.Design]int{}
	resByType := map[topology.DeviceType][]float64{}
	resByYear := map[int][]float64{}
	for _, r := range s.All() {
		if !q.matches(&r) {
			continue
		}
		t, _ := r.DeviceType()
		matched = append(matched, r)
		resolutions = append(resolutions, r.Resolution)
		starts = append(starts, r.Start)
		byType[t]++
		bySev[r.Severity]++
		byYear[r.Year]++
		for _, c := range r.EffectiveRootCauses() {
			byCause[c]++
		}
		nested(bySevType, r.Severity)[t]++
		nested(byYearSev, r.Year)[r.Severity]++
		nested(byYearType, r.Year)[t]++
		nested(byYearDesign, r.Year)[t.Design()]++
		resByType[t] = append(resByType[t], r.Resolution)
		resByYear[r.Year] = append(resByYear[r.Year], r.Resolution)
	}
	sort.Float64s(starts)
	return map[string]any{
		"Reports":                   matched,
		"Count":                     len(matched),
		"CountByDeviceType":         byType,
		"CountBySeverity":           bySev,
		"CountByYear":               byYear,
		"CountByRootCause":          byCause,
		"CountBySeverityDeviceType": bySevType,
		"CountByYearSeverity":       byYearSev,
		"CountByYearDeviceType":     byYearType,
		"CountByYearDesign":         byYearDesign,
		"Resolutions":               resolutions,
		"ResolutionsByDeviceType":   resByType,
		"ResolutionsByYear":         resByYear,
		"Starts":                    starts,
	}
}

func nested[K1, K2 comparable](m map[K1]map[K2]int, k K1) map[K2]int {
	row := m[k]
	if row == nil {
		row = map[K2]int{}
		m[k] = row
	}
	return row
}

// checkQuery fails t for every result method on which q's indexed answer
// differs from the brute-force scan.
func checkQuery(t *testing.T, s *Store, q Query, label string) {
	t.Helper()
	want := scanResults(s, q)
	for name, got := range queryResults(q) {
		if !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: %s = %v, scan gives %v", label, name, got, want[name])
		}
	}
}

// ingestAndCheck decodes a script of store operations from src and runs
// it against s until src runs dry: each step adds one report with Add (one
// step in four) or a batch of 1–40 with AddAll, checks the index's
// invariants (checkIndex), then checks one query.
// With all set, it checks every one of the 128 predicate combinations
// instead.
func ingestAndCheck(t *testing.T, s *Store, src *byteSource, all bool) {
	t.Helper()
	for step := 0; len(*src) > 0; step++ {
		if b := src.next(); b%4 == 0 {
			if _, err := s.Add(diffReport(src)); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := make([]Report, 1+(b>>2)%40)
			for i := range batch {
				batch[i] = diffReport(src)
			}
			if _, err := s.AddAll(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkIndex(s); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !all {
			mask := src.next()
			checkQuery(t, s, diffQuery(s, mask, src), fmt.Sprintf("step %d, mask %#x", step, mask&127))
			continue
		}
		for mask := 0; mask < 128; mask++ {
			checkQuery(t, s, diffQuery(s, mask, src), fmt.Sprintf("step %d, mask %#x", step, mask))
		}
		if t.Failed() {
			return
		}
	}
}

// TestQueriesMatchScan is the index's differential test: random reports
// (duplicate causes and none, years outside 2011–2017, equal starts)
// arrive through interleaved Add and AddAll calls, and after each one
// every predicate combination, on every result method, must answer as the
// brute-force Query.matches scan over All() does.
func TestQueriesMatchScan(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := simrand.New(seed)
		src := make(byteSource, 12000)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		ingestAndCheck(t, NewStore(), &src, true)
	}
}
