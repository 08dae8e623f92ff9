package sev

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"dcnr/internal/topology"
)

// Query is a filtered view over a Store's reports. The zero Query matches
// everything; With* methods narrow it. Queries are values: narrowing
// returns a new Query and never mutates the receiver.
//
// Every query is answered from the store's cell index: Year picks a
// year, DeviceType, Design and Severity pick slots, RootCause a bit a
// cell's mask must hold, and Since/Until the cells whose start bounds
// meet the window, so the cells reached hold exactly the matching reports
// and those the window cuts. A count with no RootCause and no Since/Until
// sums the slots' tallies and reaches no cell; any other count sums
// cells, testing positions against the start column only in the cells
// the window cuts. Ordered results (Reports, Resolutions*, Starts) mark
// positions in a pooled bitset and walk it in ID order. An instrumented
// store (Store.Instrument) counts a query with no set-valued predicate
// (none, or only Since/Until), which reads every slot, in
// sev_queries_scan_total, and any other in sev_queries_indexed_total.
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

// selection is q resolved against the index: the years and slots it
// admits, the cause bits a cell must share (none for a cause outside the
// enum), and its window [since, until), which a NaN bound makes empty.
type selection struct {
	s            *Store
	years        []yearCells
	slots        uint32
	causes       uint8
	since, until float64
	windowed     bool
}

// selectLocked resolves q. Caller holds the store's read lock.
func (q Query) selectLocked() selection {
	sel := selection{s: q.store, years: q.store.years, causes: 0xff, since: math.Inf(-1), until: math.Inf(1)}
	if q.year != nil {
		sel.years = nil
		if yi, ok := q.store.yearPos[*q.year]; ok {
			sel.years = q.store.years[yi : yi+1]
		}
	}
	if q.rootCause != nil {
		sel.causes = 0
		if c := *q.rootCause; c >= 0 && int(c) < numRootCauses {
			sel.causes = 1 << c
		}
	}
	for slot := range numSlots {
		t, v := slotType(slot), slotSeverity(slot)
		if (q.deviceType == nil || t == *q.deviceType) && (q.design == nil || t.Design() == *q.design) &&
			(q.severity == nil || v == *q.severity) {
			sel.slots |= 1 << slot
		}
	}
	if q.since != nil {
		sel.since, sel.windowed = *q.since, true
	}
	if q.until != nil {
		sel.until, sel.windowed = *q.until, true
	}
	return sel
}

// in reports whether the report at position pos starts inside the window.
func (sel *selection) in(pos int32) bool {
	return sel.s.start[pos] >= sel.since && sel.s.start[pos] < sel.until
}

const whole, byType, byYear = 0, 1, 2 // the groups a visit can split into

// visit resolves q into sel and calls, under the read lock, fn for every
// cell holding matching reports, with cut set when the window holds only
// some of the cell's reports: in one pass, or one per device type or
// admitted year (split), calling end with the group's key after each.
// When tallied is non-nil and q has no RootCause and no window, it calls
// tallied with each admitted slot's tally instead and reaches no cell. It
// records the query as a scan if it has no set-valued predicate, else as
// indexed with the reports in the cells or tallies read as its candidates.
func (q Query) visit(sel *selection, split int, fn func(slot int, c *cell, cut bool), tallied func(slot int, t *counts), end func(key int)) {
	s := q.store
	s.mu.RLock()
	defer s.mu.RUnlock()
	*sel = q.selectLocked()
	if sel.causes != 0xff || sel.windowed {
		tallied = nil
	}
	candidates := 0
	pass := func(years []yearCells, slots uint32, key int) {
		for i := range years {
			for m := slots; m != 0; m &= m - 1 {
				slot := bits.TrailingZeros32(m)
				if tallied != nil {
					if ti := years[i].tally[slot]; ti != 0 {
						candidates += int(s.tallies[ti].n)
						tallied(slot, &s.tallies[ti])
					}
					continue
				}
				for ci := years[i].slots[slot]; ci != 0; ci = s.cells[ci].link {
					// A NaN bound fails every comparison, so it skips every cell.
					if c := &s.cells[ci]; c.mask&sel.causes != 0 && c.hi >= sel.since && c.lo < sel.until {
						candidates += int(c.n)
						fn(slot, c, c.lo < sel.since || c.hi >= sel.until)
					}
				}
			}
		}
		end(key)
	}
	switch split {
	case byType:
		for t := range numTypes {
			pass(sel.years, sel.slots&(0b111<<(3*t)), t)
		}
	case byYear:
		for i := range sel.years {
			pass(sel.years[i:i+1], sel.slots, sel.years[i].year)
		}
	default:
		pass(sel.years, sel.slots, 0)
	}
	if q.year == nil && q.deviceType == nil && q.severity == nil && q.design == nil && q.rootCause == nil {
		s.mScanned.Inc()
		return
	}
	s.mIndexed.Inc()
	s.hCandidates.Observe(float64(candidates))
}

// tally counts matching reports per slot, and their causes' occurrences.
type tally struct {
	n      [numSlots]int
	causes [numRootCauses]int
}

// add counts c's reports, all of them matching, in slot.
func (t *tally) add(slot int, c *counts) {
	t.n[slot] += int(c.n)
	for rc, m := range c.causes {
		t.causes[rc] += int(m)
	}
}

func (t tally) total() (n int) {
	for _, k := range t.n {
		n += k
	}
	return n
}

// group sums t's slots by key, leaving out keys with no report.
func group[K comparable](t tally, key func(slot int) K) map[K]int {
	out := make(map[K]int)
	for slot, n := range t.n {
		if n > 0 {
			out[key(slot)] += n
		}
	}
	return out
}

// count calls fn with the tally of the matching reports, in all or per
// admitted year holding one (split byYear). It reads a report only in a
// cell the window cuts where one lists a cause twice: in any other cell
// each report lists exactly the mask's causes.
func (q Query) count(split int, fn func(year int, t tally)) {
	var t tally
	var sel selection
	q.visit(&sel, split, func(slot int, c *cell, cut bool) {
		if !cut {
			t.add(slot, &c.counts)
			return
		}
		k := 0
		for p := c.head; p >= 0; p = sel.s.next[p] {
			if sel.in(p) {
				k++
				if c.dup {
					for _, rc := range sel.s.reports[p].EffectiveRootCauses() {
						t.causes[rc]++
					}
				}
			}
		}
		t.n[slot] += k
		for m := c.mask; m != 0 && !c.dup; m &= m - 1 {
			t.causes[bits.TrailingZeros8(m)] += k
		}
	}, t.add, func(year int) {
		if t.total() > 0 {
			fn(year, t)
		}
		t = tally{}
	})
}

// sum returns the tally of every matching report.
func (q Query) sum() (all tally) {
	q.count(whole, func(_ int, t tally) { all = t })
	return all
}

// bitsets pools the position bitsets of ordered results. A pooled bitset
// is all zero: collect clears every word it reads.
var bitsets = sync.Pool{New: func() any { return new([]uint64) }}

// collect passes put f of every matching position in ascending order, once
// per group of visit's split that has any, with the group's key. Each pass
// marks positions in a pooled bitset and reads back the words it spans.
func collect[T any](q Query, split int, f func(s *Store, pos int) T, put func(key int, xs []T)) {
	bs := bitsets.Get().(*[]uint64)
	lo, hi, n := math.MaxInt, -1, 0
	var sel selection
	q.visit(&sel, split, func(_ int, c *cell, cut bool) {
		if !cut {
			n += int(c.n) // every position of the cell matches
		}
		if need := (len(sel.s.reports) + 63) >> 6; len(*bs) < need {
			*bs = make([]uint64, need)
		}
		for p := c.head; p >= 0; p = sel.s.next[p] {
			if !cut || sel.in(p) {
				(*bs)[p>>6] |= 1 << (p & 63)
			}
		}
		lo, hi = min(lo, int(c.head>>6)), max(hi, int(c.tail>>6))
	}, nil, func(key int) {
		xs := make([]T, 0, n)
		for w := lo; w <= hi; w++ {
			for word := (*bs)[w]; word != 0; word &= word - 1 {
				xs = append(xs, f(q.store, w<<6+bits.TrailingZeros64(word)))
			}
			(*bs)[w] = 0
		}
		if len(xs) > 0 {
			put(key, xs)
		}
		lo, hi, n = math.MaxInt, -1, 0
	})
	bitsets.Put(bs)
}

// countByYear tallies the matching reports per year, each year's slots
// grouped by key.
func countByYear[K comparable](q Query, key func(slot int) K) map[int]map[K]int {
	out := make(map[int]map[K]int)
	q.count(byYear, func(year int, t tally) { out[year] = group(t, key) })
	return out
}

func resolution(s *Store, pos int) float64 { return s.res[pos] }

// collectAll returns f of every matching position, in ID order.
func collectAll[T any](q Query, f func(s *Store, pos int) T) (out []T) {
	collect(q, whole, f, func(_ int, xs []T) { out = xs })
	return out
}

// Reports returns the matching reports in ID order.
func (q Query) Reports() []Report {
	return collectAll(q, func(s *Store, pos int) Report { return s.reports[pos] })
}

// Count returns the number of matching reports.
func (q Query) Count() int { return q.sum().total() }

// CountByDeviceType groups matching reports by offending device type.
func (q Query) CountByDeviceType() map[topology.DeviceType]int { return group(q.sum(), slotType) }

// CountBySeverity groups matching reports by severity level.
func (q Query) CountBySeverity() map[Severity]int { return group(q.sum(), slotSeverity) }

// CountByYear groups matching reports by start year.
func (q Query) CountByYear() map[int]int {
	out := make(map[int]int)
	q.count(byYear, func(year int, t tally) { out[year] = t.total() })
	return out
}

// CountByRootCause groups matching reports by root-cause category. A SEV
// with multiple root causes counts toward each (§5.1); one with none counts
// as Undetermined.
func (q Query) CountByRootCause() map[RootCause]int {
	out := make(map[RootCause]int)
	for c, n := range q.sum().causes {
		if n > 0 {
			out[RootCause(c)] = n
		}
	}
	return out
}

// CountBySeverityDeviceType groups matching reports by severity level and,
// within each level, by device type — Figure 4's nested breakdown in one
// pass.
func (q Query) CountBySeverityDeviceType() map[Severity]map[topology.DeviceType]int {
	out := make(map[Severity]map[topology.DeviceType]int)
	for slot, n := range q.sum().n {
		if n > 0 {
			if out[slotSeverity(slot)] == nil {
				out[slotSeverity(slot)] = make(map[topology.DeviceType]int)
			}
			out[slotSeverity(slot)][slotType(slot)] = n
		}
	}
	return out
}

// CountByYearSeverity groups matching reports by start year and severity
// level in one pass (Figure 5's numerators).
func (q Query) CountByYearSeverity() map[int]map[Severity]int { return countByYear(q, slotSeverity) }

// CountByYearDeviceType groups matching reports by start year and device
// type in one pass (Figures 7 and 8's numerators).
func (q Query) CountByYearDeviceType() map[int]map[topology.DeviceType]int {
	return countByYear(q, slotType)
}

// CountByYearDesign groups matching reports by start year and network
// design in one pass (Figures 9 and 10's numerators).
func (q Query) CountByYearDesign() map[int]map[topology.Design]int {
	return countByYear(q, func(slot int) topology.Design { return slotType(slot).Design() })
}

// Resolutions returns the resolution times (hours) of matching reports.
func (q Query) Resolutions() []float64 { return collectAll(q, resolution) }

// ResolutionsByDeviceType groups matching reports' resolution times by
// device type (Figure 13's samples), each group in ID order.
func (q Query) ResolutionsByDeviceType() map[topology.DeviceType][]float64 {
	out := make(map[topology.DeviceType][]float64)
	collect(q, byType, resolution, func(t int, xs []float64) { out[topology.DeviceType(t)] = xs })
	return out
}

// ResolutionsByYear groups matching reports' resolution times by start
// year (Figure 14's samples), each group in ID order.
func (q Query) ResolutionsByYear() map[int][]float64 {
	out := make(map[int][]float64)
	collect(q, byYear, resolution, func(year int, xs []float64) { out[year] = xs })
	return out
}

// Starts returns the start times (hours since epoch) of matching reports
// in ascending order.
func (q Query) Starts() []float64 {
	out := collectAll(q, func(s *Store, pos int) float64 { return s.start[pos] })
	sort.Float64s(out)
	return out
}
