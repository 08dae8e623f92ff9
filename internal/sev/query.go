package sev

import (
	"sort"

	"dcnr/internal/topology"
)

// Query is a filtered view over a Store's reports. The zero Query matches
// everything; With* methods narrow it. Queries are values: narrowing
// returns a new Query and never mutates the receiver.
//
// Evaluation uses the store's secondary indexes: every set-valued predicate
// (year, device type, severity, design, root cause) selects a posting list,
// the lists are intersected starting from the smallest, and the Since/Until
// window is applied as a residual filter over the candidates. A query
// narrowed only by the time window (for example Query().Since(a).Until(b))
// binary-searches the store's start-time-sorted index for the matching
// range instead; only a query with no predicate at all scans sequentially.
// An instrumented store (Store.Instrument) counts the two paths as
// sev_queries_indexed_total vs sev_queries_scan_total, so scan regressions
// show up in metrics instead of only in latency.
type Query struct {
	store        *Store
	year         *int
	deviceType   *topology.DeviceType
	severity     *Severity
	design       *topology.Design
	rootCause    *RootCause
	since, until *float64
}

// Query starts a query over all reports in the store.
func (s *Store) Query() Query { return Query{store: s} }

// ShardedQuery exists only so the frozen cmd/dcnrbench benchmark, which
// names the daemon's query type by its old name, keeps compiling.
type ShardedQuery = Query

// Year narrows to incidents that started in the given calendar year.
func (q Query) Year(y int) Query { q.year = &y; return q }

// DeviceType narrows to incidents whose offending device has type t.
func (q Query) DeviceType(t topology.DeviceType) Query { q.deviceType = &t; return q }

// Severity narrows to incidents of the given level.
func (q Query) Severity(v Severity) Query { q.severity = &v; return q }

// Design narrows to incidents on devices of the given network design.
func (q Query) Design(d topology.Design) Query { q.design = &d; return q }

// RootCause narrows to incidents that carry the given root-cause category
// (a multi-cause SEV matches each of its categories, per §5.1's counting
// rule).
func (q Query) RootCause(c RootCause) Query { q.rootCause = &c; return q }

// Since narrows to incidents starting at or after t (hours since epoch).
// A NaN t matches nothing.
func (q Query) Since(t float64) Query { q.since = &t; return q }

// Until narrows to incidents starting strictly before t (hours since
// epoch). Since(a).Until(b) selects the half-open window [a, b). A NaN t
// matches nothing.
func (q Query) Until(t float64) Query { q.until = &t; return q }

// matches is the full sequential-scan predicate, used when no index
// applies and by tests cross-checking the index path.
func (q Query) matches(r *Report) bool {
	if q.year != nil && r.Year != *q.year {
		return false
	}
	if !q.matchesWindow(r) {
		return false
	}
	if q.severity != nil && r.Severity != *q.severity {
		return false
	}
	if q.deviceType != nil {
		t, err := r.DeviceType()
		if err != nil || t != *q.deviceType {
			return false
		}
	}
	if q.design != nil && r.Design() != *q.design {
		return false
	}
	if q.rootCause != nil {
		found := false
		for _, c := range r.EffectiveRootCauses() {
			if c == *q.rootCause {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// matchesWindow applies the residual Since/Until predicates — the only
// filters the posting lists do not encode. The comparisons are negated so
// a NaN bound matches nothing, as it does on the time index.
func (q Query) matchesWindow(r *Report) bool {
	if q.since != nil && !(r.Start >= *q.since) {
		return false
	}
	if q.until != nil && !(r.Start < *q.until) {
		return false
	}
	return true
}

// postingsLocked collects the posting lists selected by q's indexed
// predicates. indexed is false when q has none (→ scan path). A predicate
// whose key is absent from its index yields an empty list, which makes the
// intersection empty. Caller holds the store's read lock.
func (q Query) postingsLocked() (lists [][]int, indexed bool) {
	s := q.store
	if q.year != nil {
		lists = append(lists, s.byYear[*q.year])
		indexed = true
	}
	if q.deviceType != nil {
		lists = append(lists, s.byType[*q.deviceType])
		indexed = true
	}
	if q.severity != nil {
		lists = append(lists, s.bySev[*q.severity])
		indexed = true
	}
	if q.design != nil {
		lists = append(lists, s.byDesign[*q.design])
		indexed = true
	}
	if q.rootCause != nil {
		lists = append(lists, s.byCause[*q.rootCause])
		indexed = true
	}
	return lists, indexed
}

// intersectPostings intersects sorted position lists, iterating the
// smallest and merge-filtering through the rest.
func intersectPostings(lists [][]int) []int {
	if len(lists) == 0 {
		return nil
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, list := range lists[1:] {
		if len(out) == 0 {
			return nil
		}
		merged := make([]int, 0, len(out))
		j := 0
		for _, pos := range out {
			for j < len(list) && list[j] < pos {
				j++
			}
			if j == len(list) {
				break
			}
			if list[j] == pos {
				merged = append(merged, pos)
			}
		}
		out = merged
	}
	return out
}

// forEach invokes fn for every matching report in position (= ID) order,
// holding the store's read lock for the duration.
func (q Query) forEach(fn func(pos int, r *Report)) {
	s := q.store
	s.mu.RLock()
	defer s.mu.RUnlock()
	if lists, indexed := q.postingsLocked(); indexed {
		s.mIndexed.Inc()
		if s.hPostings != nil {
			for _, list := range lists {
				s.hPostings.Observe(float64(len(list)))
			}
		}
		candidates := intersectPostings(lists)
		s.hCandidates.Observe(float64(len(candidates)))
		for _, pos := range candidates {
			if r := &s.reports[pos]; q.matchesWindow(r) {
				fn(pos, r)
			}
		}
		return
	}
	if q.since != nil || q.until != nil {
		// Window-only query: binary search the start-time index for the
		// matching range, then restore position order for the caller.
		s.mIndexed.Inc()
		in := s.startRangeLocked(q.since, q.until)
		s.hCandidates.Observe(float64(len(in)))
		candidates := append([]int(nil), in...)
		sort.Ints(candidates)
		for _, pos := range candidates {
			fn(pos, &s.reports[pos])
		}
		return
	}
	s.mScanned.Inc()
	for pos := range s.reports {
		if r := &s.reports[pos]; q.matches(r) {
			fn(pos, r)
		}
	}
}

// Reports returns the matching reports in ID order.
func (q Query) Reports() []Report {
	var out []Report
	q.forEach(func(_ int, r *Report) { out = append(out, *r) })
	return out
}

// Count returns the number of matching reports.
func (q Query) Count() int {
	n := 0
	q.forEach(func(int, *Report) { n++ })
	return n
}

// CountByDeviceType groups matching reports by offending device type.
func (q Query) CountByDeviceType() map[topology.DeviceType]int {
	out := make(map[topology.DeviceType]int)
	q.forEach(func(pos int, _ *Report) {
		if t := q.store.types[pos]; t >= 0 {
			out[t]++
		}
	})
	return out
}

// CountBySeverity groups matching reports by severity level.
func (q Query) CountBySeverity() map[Severity]int {
	out := make(map[Severity]int)
	q.forEach(func(_ int, r *Report) { out[r.Severity]++ })
	return out
}

// CountByYear groups matching reports by start year.
func (q Query) CountByYear() map[int]int {
	out := make(map[int]int)
	q.forEach(func(_ int, r *Report) { out[r.Year]++ })
	return out
}

// CountByRootCause groups matching reports by root-cause category. A SEV
// with multiple root causes counts toward each (§5.1); one with none counts
// as Undetermined.
func (q Query) CountByRootCause() map[RootCause]int {
	out := make(map[RootCause]int)
	q.forEach(func(_ int, r *Report) {
		for _, c := range r.EffectiveRootCauses() {
			out[c]++
		}
	})
	return out
}

// CountBySeverityDeviceType groups matching reports by severity level and,
// within each level, by device type — Figure 4's nested breakdown in one
// pass.
func (q Query) CountBySeverityDeviceType() map[Severity]map[topology.DeviceType]int {
	out := make(map[Severity]map[topology.DeviceType]int)
	q.forEach(func(pos int, r *Report) {
		row := out[r.Severity]
		if row == nil {
			row = make(map[topology.DeviceType]int)
			out[r.Severity] = row
		}
		if t := q.store.types[pos]; t >= 0 {
			row[t]++
		}
	})
	return out
}

// CountByYearSeverity groups matching reports by start year and severity
// level in one pass (Figure 5's numerators).
func (q Query) CountByYearSeverity() map[int]map[Severity]int {
	out := make(map[int]map[Severity]int)
	q.forEach(func(_ int, r *Report) {
		row := out[r.Year]
		if row == nil {
			row = make(map[Severity]int)
			out[r.Year] = row
		}
		row[r.Severity]++
	})
	return out
}

// CountByYearDeviceType groups matching reports by start year and device
// type in one pass (Figures 7 and 8's numerators).
func (q Query) CountByYearDeviceType() map[int]map[topology.DeviceType]int {
	out := make(map[int]map[topology.DeviceType]int)
	q.forEach(func(pos int, r *Report) {
		row := out[r.Year]
		if row == nil {
			row = make(map[topology.DeviceType]int)
			out[r.Year] = row
		}
		if t := q.store.types[pos]; t >= 0 {
			row[t]++
		}
	})
	return out
}

// CountByYearDesign groups matching reports by start year and network
// design in one pass (Figures 9 and 10's numerators).
func (q Query) CountByYearDesign() map[int]map[topology.Design]int {
	out := make(map[int]map[topology.Design]int)
	q.forEach(func(pos int, r *Report) {
		row := out[r.Year]
		if row == nil {
			row = make(map[topology.Design]int)
			out[r.Year] = row
		}
		if t := q.store.types[pos]; t >= 0 {
			row[t.Design()]++
		}
	})
	return out
}

// Resolutions returns the resolution times (hours) of matching reports.
func (q Query) Resolutions() []float64 {
	var out []float64
	q.forEach(func(_ int, r *Report) { out = append(out, r.Resolution) })
	return out
}

// ResolutionsByDeviceType groups matching reports' resolution times by
// device type in one pass (Figure 13's samples).
func (q Query) ResolutionsByDeviceType() map[topology.DeviceType][]float64 {
	out := make(map[topology.DeviceType][]float64)
	q.forEach(func(pos int, r *Report) {
		if t := q.store.types[pos]; t >= 0 {
			out[t] = append(out[t], r.Resolution)
		}
	})
	return out
}

// ResolutionsByYear groups matching reports' resolution times by start
// year in one pass (Figure 14's samples).
func (q Query) ResolutionsByYear() map[int][]float64 {
	out := make(map[int][]float64)
	q.forEach(func(_ int, r *Report) { out[r.Year] = append(out[r.Year], r.Resolution) })
	return out
}

// Starts returns the start times (hours since epoch) of matching reports
// in ascending order.
func (q Query) Starts() []float64 {
	var out []float64
	q.forEach(func(_ int, r *Report) { out = append(out, r.Start) })
	sort.Float64s(out)
	return out
}
