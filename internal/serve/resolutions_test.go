package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dcnr/internal/sev"
)

// sortedBand is the reference for makeBand: the mean summed in ID order,
// and each percentile interpolated between the closest ranks of a sorted
// copy.
func sortedBand(xs []float64) band {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pct := func(p float64) float64 {
		if len(sorted) == 1 {
			return sorted[0]
		}
		rank := p / 100 * float64(len(sorted)-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		if lo == hi {
			return sorted[lo]
		}
		frac := rank - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return band{Count: len(xs), Mean: sum / float64(len(xs)), P50: pct(50), P75: pct(75), P90: pct(90), P99: pct(99)}
}

// sortedResolutionsBody is the /query/resolutions body target would get
// with every band built by sortedBand.
func sortedResolutionsBody(t *testing.T, store *sev.Store, target string) []byte {
	t.Helper()
	u, err := url.ParseRequestURI(target)
	if err != nil {
		t.Fatal(err)
	}
	p, err := routes[1].parse(u.RawQuery)
	if err != nil {
		t.Fatal(err)
	}
	q := p.apply(store.Query())
	out := resolutionsResponse{Groups: map[string]band{}}
	switch p.by {
	case "":
		if xs := q.Resolutions(); len(xs) > 0 {
			out.Groups["all"] = sortedBand(xs)
		}
	case "device":
		for dt, xs := range q.ResolutionsByDeviceType() {
			out.Groups[devKey(dt)] = sortedBand(xs)
		}
	case "year":
		for y, xs := range q.ResolutionsByYear() {
			out.Groups[itoaKey(y)] = sortedBand(xs)
		}
	}
	body, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestResolutionBodiesMatchSort checks, over 100k reports, that the
// selected percentile bands serve the bytes the sort-based ones did: the
// hot mix's three resolution keys and a sample of query-cold's.
func TestResolutionBodiesMatchSort(t *testing.T) {
	store := sev.NewStore()
	if _, err := store.AddAll(coldReports(100_000, 20181031)); err != nil {
		t.Fatal(err)
	}
	targets := []string{"/query/resolutions", "/query/resolutions?by=device", "/query/resolutions?by=year"}
	rng := splitmix64(11)
	for len(targets) < 40 {
		if p := coldPath(&rng); strings.HasPrefix(p, "/query/resolutions") {
			targets = append(targets, p)
		}
	}
	for _, target := range targets {
		got, err := Answer(store, target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if want := sortedResolutionsBody(t, store, target); !bytes.Equal(got, want) {
			t.Errorf("%s:\nselected %s\nsorted   %s", target, got, want)
		}
	}
}

// TestResolutionMissCopiesNoSample pins that a /query/resolutions miss
// selects its percentiles in the sample the query built and makes no
// second copy of it: over 100k reports the miss allocates the 800 KB
// sample once, not twice.
func TestResolutionMissCopiesNoSample(t *testing.T) {
	const n = 100_000
	store := sev.NewStore()
	if _, err := store.AddAll(coldReports(n, 7)); err != nil {
		t.Fatal(err)
	}
	miss := func() {
		if _, err := Answer(store, "/query/resolutions"); err != nil {
			t.Fatal(err)
		}
	}
	miss() // fills the query's bitset pool
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		miss()
	}
	runtime.ReadMemStats(&after)
	sample := uint64(8 * n)
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / runs; perMiss >= sample*3/2 {
		t.Errorf("a miss allocates %d B; the sample alone is %d B", perMiss, sample)
	}
}

// TestDaemonLoadJSONRejects: the daemon's dataset load refuses an ID-less
// (ID 0) entry and an ID at or below the largest stored, leaving the
// store and its generation as they were.
func TestDaemonLoadJSONRejects(t *testing.T) {
	var cfg Config
	d, err := NewDaemon(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	report := func(id string) string {
		return `{` + id + `"severity":3,"device":"rsw001.cl001.dc1.ra","start":1,"duration":1,"resolution":2,"year":2011}`
	}
	if err := d.LoadJSON(strings.NewReader("[" + report(`"id":5,`) + "]")); err != nil {
		t.Fatal(err)
	}
	gen := d.Generation()
	for _, tc := range []struct{ name, data, want string }{
		{"ID-less", "[" + report("") + "]", "report ID 0"},
		{"ID 0", "[" + report(`"id":0,`) + "," + report(`"id":9,`) + "]", "report ID 0"},
		{"at the largest", "[" + report(`"id":5,`) + "]", "report ID 5 in dataset is not above ID 5"},
		{"below the largest", "[" + report(`"id":7,`) + "," + report(`"id":3,`) + "]", "report ID 3 in dataset is not above ID 5"},
	} {
		err := d.LoadJSON(strings.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadJSON error = %v, want one naming %q", tc.name, err, tc.want)
		}
		if d.Store().Len() != 1 || d.Generation() != gen {
			t.Errorf("%s: rejected load changed the store: %d reports, generation %d → %d", tc.name, d.Store().Len(), gen, d.Generation())
		}
	}
	if err := d.LoadJSON(strings.NewReader("[" + report(`"id":8,`) + "," + report(`"id":6,`) + "]")); err != nil {
		t.Fatal(err)
	}
	if r, err := d.Store().Get(8); err != nil || r.ID != 8 || d.Store().Len() != 3 {
		t.Errorf("load above the largest ID: Get(8) = %+v, %v; Len %d", r, err, d.Store().Len())
	}
}
