package main

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"dcnr/internal/backbone"
	"dcnr/internal/des"
	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

// splitmix64 is the benchmark's PRNG: every input is a pure function of
// the seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// rngFor returns the generator for one (seed, stream, index) triple, so
// request i of a phase is the same whichever sender builds it.
func rngFor(seed uint64, stream, i int) *splitmix64 {
	s := splitmix64(seed ^ uint64(stream)<<48 ^ uint64(i)*0x9e3779b97f4a7c15)
	s.next()
	return &s
}

var studyYears = fleet.LastYear - fleet.FirstYear + 1

// typicalLinkFailures is the median over seeds of the number of isolated
// failures a backbone link is expected to have in the observation window
// (12.3 over 2000 seeds, at any edge count).
const typicalLinkFailures = 12.3

// candidatesPerSeed is how many backbones typicalBackboneSeeds builds for
// each seed it returns. About one candidate in 25 is typical, so 100 hold
// four on average.
const candidatesPerSeed = 100

// typicalBackboneSeeds draws n×candidatesPerSeed seeds from seed and
// returns the first n whose backbones, at the given edge scale, expect
// within 2% of typicalLinkFailures isolated failures per link; should
// fewer pass, the closest of the rest make up the n. A backbone's failure
// count is set by a few of its 24 vendors' log-normal link MTBFs, so it
// varies threefold from seed to seed, and every backbone analysis costs in
// proportion; holding the expectation fixed makes the input size the same
// for every seed while the data still differs. The search always builds
// the same number of backbones, so as part of a set-up it costs the same
// at every seed.
func typicalBackboneSeeds(seed uint64, scale, n int) ([]uint64, error) {
	type candidate struct {
		seed uint64
		off  float64 // relative distance from typicalLinkFailures
	}
	rng := splitmix64(seed)
	cands := make([]candidate, n*candidatesPerSeed)
	for i := range cands {
		cfg := backbone.DefaultConfig()
		cfg.Seed = rng.next()
		cfg.Edges *= scale
		topo, err := backbone.Build(cfg)
		if err != nil {
			return nil, err
		}
		expected := 0.0
		for _, l := range topo.Links {
			v := topo.Vendors[l.Vendor]
			expected += cfg.WindowHours() / (v.LinkMTBF + v.LinkMTTR)
		}
		perLink := expected / float64(len(topo.Links))
		cands[i] = candidate{cfg.Seed, math.Abs(perLink/typicalLinkFailures - 1)}
	}
	// Typical candidates first, in the order drawn, then the rest by
	// distance.
	sort.SliceStable(cands, func(a, b int) bool {
		ta, tb := cands[a].off < 0.02, cands[b].off < 0.02
		if ta || tb {
			return ta && !tb
		}
		return cands[a].off < cands[b].off
	})
	out := make([]uint64, n)
	for i := range out {
		out[i] = cands[i].seed
	}
	return out, nil
}

// synthReports generates n SEV reports spread over every indexed
// dimension: the seven study years, every intra-DC device type, the three
// severities, zero to two root causes, and long-tailed resolution times.
// IDs are left 0 for the store to assign.
func synthReports(n int, seed uint64) []sev.Report {
	rng := splitmix64(seed)
	out := make([]sev.Report, n)
	for i := range out {
		r := &out[i]
		t := topology.IntraDCTypes[rng.intn(len(topology.IntraDCTypes))]
		r.Device = topology.MakeName(t, 1+rng.intn(48), fmt.Sprintf("u%d", 1+rng.intn(8)), fmt.Sprintf("dc%d", 1+rng.intn(6)), "ra")
		r.Severity = sev.Severity(1 + rng.intn(3))
		r.Year = fleet.FirstYear + rng.intn(studyYears)
		r.Start = des.YearStart(r.Year, fleet.FirstYear) + float64(rng.intn(des.HoursPerYear*10))/10
		r.Duration = 0.5 + float64(rng.intn(160))/10
		r.Resolution = r.Duration + float64(rng.intn(2400))/10
		for c := rng.intn(3); c > 0; c-- {
			cause := sev.RootCauses[rng.intn(len(sev.RootCauses)-1)] // never Undetermined
			if len(r.RootCauses) == 0 || r.RootCauses[0] != cause {
				r.RootCauses = append(r.RootCauses, cause)
			}
		}
		r.Title = fmt.Sprintf("%s incident %d", t, i)
	}
	return out
}

// qspec is one query of the dcnrd API: an endpoint, its filters (a zero
// year, a negative enum or a NaN bound means "not set") and a grouping.
type qspec struct {
	resolutions  bool
	by           string
	year         int
	device       topology.DeviceType
	severity     sev.Severity
	design       topology.Design
	cause        sev.RootCause
	since, until float64
}

// anyQuery is a qspec with no filter set.
func anyQuery(resolutions bool, by string) qspec {
	return qspec{resolutions: resolutions, by: by, device: -1, design: -1, cause: -1,
		since: math.NaN(), until: math.NaN()}
}

// path renders the query as a request path.
func (q qspec) path() string {
	v := url.Values{}
	if q.year != 0 {
		v.Set("year", strconv.Itoa(q.year))
	}
	if q.device >= 0 {
		v.Set("device", q.device.String())
	}
	if q.severity != 0 {
		v.Set("severity", strconv.Itoa(int(q.severity)))
	}
	if q.design >= 0 {
		v.Set("design", q.design.String())
	}
	if q.cause >= 0 {
		v.Set("cause", q.cause.String())
	}
	if !math.IsNaN(q.since) {
		v.Set("since", strconv.FormatFloat(q.since, 'f', -1, 64))
	}
	if !math.IsNaN(q.until) {
		v.Set("until", strconv.FormatFloat(q.until, 'f', -1, 64))
	}
	if q.by != "" {
		v.Set("by", q.by)
	}
	p := "/query/count"
	if q.resolutions {
		p = "/query/resolutions"
	}
	if len(v) == 0 {
		return p
	}
	return p + "?" + v.Encode()
}

// hotMix is dcnrload's paper-weighted mix: twelve queries, weighted by how
// often the paper's analyses ask them. Each is one cache key.
var hotMix = func() []struct {
	q      qspec
	weight int
} {
	count := func(by string) qspec { return anyQuery(false, by) }
	rsw := count("year")
	rsw.device = topology.RSW
	sev3 := count("")
	sev3.severity = sev.Sev3
	return []struct {
		q      qspec
		weight int
	}{
		{count("device"), 18},
		{count("year"), 14},
		{count("severity"), 10},
		{count("year-severity"), 10},
		{count("year-device"), 8},
		{count("year-design"), 6},
		{count("cause"), 8},
		{anyQuery(true, "device"), 10},
		{anyQuery(true, "year"), 6},
		{anyQuery(true, ""), 4},
		{rsw, 4},
		{sev3, 2},
	}
}()

func hotQuery(rng *splitmix64) qspec {
	total := 0
	for _, m := range hotMix {
		total += m.weight
	}
	n := rng.intn(total)
	for _, m := range hotMix {
		if n < m.weight {
			return m.q
		}
		n -= m.weight
	}
	return hotMix[0].q
}

var (
	countGroupings      = []string{"", "device", "severity", "year", "cause", "severity-device", "year-severity", "year-device", "year-design"}
	resolutionGroupings = []string{"", "device", "year"}
	designs             = []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric}
)

// coldQuery draws every filter independently and the grouping over all
// twelve, so almost every query is a new cache key.
func coldQuery(rng *splitmix64) qspec {
	g := rng.intn(len(countGroupings) + len(resolutionGroupings))
	q := anyQuery(g >= len(countGroupings), "")
	if q.resolutions {
		q.by = resolutionGroupings[g-len(countGroupings)]
	} else {
		q.by = countGroupings[g]
	}
	// Each filter is set with probability 3/4 and each time bound with
	// probability 1/4: more than 50k distinct keys before the bounds, whose
	// values are almost never drawn twice.
	set := func() bool { return rng.intn(4) != 0 }
	if set() {
		q.year = fleet.FirstYear + rng.intn(studyYears)
	}
	if set() {
		q.device = topology.IntraDCTypes[rng.intn(len(topology.IntraDCTypes))]
	}
	if set() {
		q.severity = sev.Severity(1 + rng.intn(3))
	}
	if set() {
		q.design = designs[rng.intn(len(designs))]
	}
	if set() {
		q.cause = sev.RootCauses[rng.intn(len(sev.RootCauses))]
	}
	if rng.intn(4) == 0 {
		q.since = float64(rng.intn(studyYears * des.HoursPerYear))
	}
	if rng.intn(4) == 0 {
		lo := 0.0
		if !math.IsNaN(q.since) {
			lo = q.since
		}
		q.until = lo + float64(1+rng.intn(2*des.HoursPerYear))
	}
	return q
}

// reference answers queries by scanning the reports one by one, with no
// index: the check that the daemon's sharded, indexed and cached answers
// are right. Each distinct query keeps a running aggregate, so a check
// after k ingest batches scans only the reports added since that query's
// last check; checks must come in non-decreasing k.
type reference struct {
	reports []*sev.Report // the loaded dataset, then each applied ingest batch
	types   []topology.DeviceType
	batches [][]sev.Report // ingest batch j is batches[j%len(batches)]
	applied int
	aggs    map[string]*aggregate
}

// aggregate is one query's answer over reports[:scanned].
type aggregate struct {
	scanned int
	total   int
	counts  map[[2]string]int    // count endpoints: (group, subgroup) → count
	samples map[string][]float64 // resolutions: group → sorted resolution times
	sums    map[string]float64
}

func newReference(loaded []sev.Report, batches [][]sev.Report) *reference {
	ref := &reference{batches: batches, aggs: make(map[string]*aggregate)}
	ref.add(loaded)
	return ref
}

func (ref *reference) add(rs []sev.Report) {
	for i := range rs {
		t, _ := rs[i].DeviceType()
		ref.reports = append(ref.reports, &rs[i])
		ref.types = append(ref.types, t)
	}
}

func (ref *reference) matches(q qspec, i int) bool {
	r, t := ref.reports[i], ref.types[i]
	switch {
	case q.year != 0 && r.Year != q.year,
		q.device >= 0 && t != q.device,
		q.severity != 0 && r.Severity != q.severity,
		q.design >= 0 && t.Design() != q.design,
		!math.IsNaN(q.since) && r.Start < q.since,
		!math.IsNaN(q.until) && r.Start >= q.until:
		return false
	}
	if q.cause >= 0 {
		for _, c := range r.EffectiveRootCauses() {
			if c == q.cause {
				return true
			}
		}
		return false
	}
	return true
}

// expect returns the JSON value (as encoding/json decodes into any) the
// daemon must answer q with once k ingest batches have landed.
func (ref *reference) expect(q qspec, k int) any {
	for ; ref.applied < k; ref.applied++ {
		ref.add(ref.batches[ref.applied%len(ref.batches)])
	}
	a := ref.aggs[q.path()]
	if a == nil {
		a = &aggregate{counts: make(map[[2]string]int), samples: make(map[string][]float64), sums: make(map[string]float64)}
		ref.aggs[q.path()] = a
	}
	added := make(map[string][]float64)
	for ; a.scanned < len(ref.reports); a.scanned++ {
		i := a.scanned
		if !ref.matches(q, i) {
			continue
		}
		r, t := ref.reports[i], ref.types[i]
		a.total++
		if q.resolutions {
			key := "all"
			switch q.by {
			case "device":
				key = t.String()
			case "year":
				key = strconv.Itoa(r.Year)
			}
			added[key] = append(added[key], r.Resolution)
			a.sums[key] += r.Resolution
			continue
		}
		year := strconv.Itoa(r.Year)
		switch q.by {
		case "device":
			a.counts[[2]string{t.String()}]++
		case "severity":
			a.counts[[2]string{r.Severity.String()}]++
		case "year":
			a.counts[[2]string{year}]++
		case "cause":
			for _, c := range r.EffectiveRootCauses() {
				a.counts[[2]string{c.String()}]++
			}
		case "severity-device":
			a.counts[[2]string{r.Severity.String(), t.String()}]++
		case "year-severity":
			a.counts[[2]string{year, r.Severity.String()}]++
		case "year-device":
			a.counts[[2]string{year, t.String()}]++
		case "year-design":
			a.counts[[2]string{year, t.Design().String()}]++
		}
	}
	for key, xs := range added {
		sort.Float64s(xs)
		a.samples[key] = mergeSorted(a.samples[key], xs)
	}
	if q.resolutions {
		return a.bands()
	}
	return a.countsJSON(q.by)
}

func (a *aggregate) countsJSON(by string) any {
	if by == "" {
		return map[string]any{"count": float64(a.total)}
	}
	if len(a.counts) == 0 {
		return map[string]any{}
	}
	groups := make(map[string]any)
	for k, n := range a.counts {
		if k[1] == "" {
			groups[k[0]] = float64(n)
			continue
		}
		inner, _ := groups[k[0]].(map[string]any)
		if inner == nil {
			inner = make(map[string]any)
			groups[k[0]] = inner
		}
		inner[k[1]] = float64(n)
	}
	return map[string]any{"groups": groups}
}

func (a *aggregate) bands() any {
	groups := make(map[string]any, len(a.samples))
	for k, xs := range a.samples {
		groups[k] = map[string]any{
			"count": float64(len(xs)), "mean": a.sums[k] / float64(len(xs)),
			"p50": interpolate(xs, 50), "p75": interpolate(xs, 75),
			"p90": interpolate(xs, 90), "p99": interpolate(xs, 99),
		}
	}
	return map[string]any{"groups": groups}
}

// interpolate is the p-th percentile of sorted xs, interpolating linearly
// between the closest ranks.
func interpolate(xs []float64, p float64) float64 {
	rank := p / 100 * float64(len(xs)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return xs[lo] + (xs[hi]-xs[lo])*(rank-float64(lo))
}

func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
