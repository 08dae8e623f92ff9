package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"dcnr/internal/des"
	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

// splitmix64 is the generator cmd/dcnrbench draws its datasets and
// queries from, so this benchmark sizes the same miss path.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// coldReports generates n reports spread over every indexed dimension as
// dcnrbench's query workloads do: the seven study years, every intra-DC
// device type, the three severities, zero to two root causes.
func coldReports(n int, seed uint64) []sev.Report {
	rng := splitmix64(seed)
	years := fleet.LastYear - fleet.FirstYear + 1
	out := make([]sev.Report, n)
	for i := range out {
		r := &out[i]
		t := topology.IntraDCTypes[rng.intn(len(topology.IntraDCTypes))]
		r.Device = topology.MakeName(t, 1+rng.intn(48), fmt.Sprintf("u%d", 1+rng.intn(8)), fmt.Sprintf("dc%d", 1+rng.intn(6)), "ra")
		r.Severity = sev.Severity(1 + rng.intn(3))
		r.Year = fleet.FirstYear + rng.intn(years)
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

// coldPath draws one query as dcnrbench's query-cold workload does: a
// grouping over all twelve, each filter set with probability 3/4 and each
// time bound with probability 1/4.
func coldPath(rng *splitmix64) string {
	v := url.Values{}
	countBy, resolutionsBy := routes[0].by, routes[1].by
	g := rng.intn(len(countBy) + len(resolutionsBy))
	path := "/query/count"
	by := ""
	if g < len(countBy) {
		by = countBy[g]
	} else {
		path, by = "/query/resolutions", resolutionsBy[g-len(countBy)]
	}
	set := func() bool { return rng.intn(4) != 0 }
	years := fleet.LastYear - fleet.FirstYear + 1
	if set() {
		v.Set("year", strconv.Itoa(fleet.FirstYear+rng.intn(years)))
	}
	if set() {
		v.Set("device", topology.IntraDCTypes[rng.intn(len(topology.IntraDCTypes))].String())
	}
	if set() {
		v.Set("severity", strconv.Itoa(1+rng.intn(3)))
	}
	if set() {
		designs := []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric}
		v.Set("design", designs[rng.intn(len(designs))].String())
	}
	if set() {
		v.Set("cause", sev.RootCauses[rng.intn(len(sev.RootCauses))].String())
	}
	since := math.NaN()
	if rng.intn(4) == 0 {
		since = float64(rng.intn(years * des.HoursPerYear))
		v.Set("since", strconv.FormatFloat(since, 'f', -1, 64))
	}
	if rng.intn(4) == 0 {
		lo := 0.0
		if !math.IsNaN(since) {
			lo = since
		}
		v.Set("until", strconv.FormatFloat(lo+float64(1+rng.intn(2*des.HoursPerYear)), 'f', -1, 64))
	}
	if by != "" {
		v.Set("by", by)
	}
	if len(v) == 0 {
		return path
	}
	return path + "?" + v.Encode()
}

// BenchmarkDaemonColdMiss times one cache miss of the query API in
// process: 100k reports, and 4096 distinct cold queries cycled through the
// default 1024-entry LRU, so every request is a miss (checked at the end).
// It covers parse, cache lookup, the store query and JSON encoding, but
// not the network; B/op is the miss path's allocation.
func BenchmarkDaemonColdMiss(b *testing.B) {
	var cfg Config
	d, err := NewDaemon(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Store().AddAll(coldReports(100_000, 20181031)); err != nil {
		b.Fatal(err)
	}
	rng := splitmix64(7)
	seen := make(map[string]bool)
	var reqs []*http.Request
	for len(reqs) < 4*DefaultCacheEntries {
		if p := coldPath(&rng); !seen[p] {
			seen[p] = true
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, p, nil))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		d.srv.mux.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", reqs[i%len(reqs)].URL, w.Code, w.Body)
		}
	}
	b.StopTimer()
	if hits := d.mHits.Value(); hits != 0 {
		b.Fatalf("%d cache hits; every request must miss", hits)
	}
}
