package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/sev"
)

// daemonReports builds n valid reports across the indexed dimensions.
func daemonReports(n, base int) []sev.Report {
	devices := []string{
		"rsw001.cl001.dc1.ra", "csw001.cl001.dc1.ra", "csa001.dc1.ra",
		"esw001.cl001.dc1.ra", "ssw001.cl001.dc1.ra",
	}
	out := make([]sev.Report, n)
	for i := range out {
		k := base + i
		out[i] = sev.Report{
			Severity:   sev.Severity(1 + k%3),
			Device:     devices[k%len(devices)],
			Start:      float64(k * 3),
			Duration:   1,
			Resolution: float64(2 + k%7),
			Year:       2011 + k%7,
		}
	}
	return out
}

// startDaemon builds, seeds, and starts a daemon, returning its base URL
// and a cleanup-registered handle.
func startDaemon(t *testing.T, cfg Config, seed int) (*Daemon, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	d, err := NewDaemon(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	if seed > 0 {
		if _, err := d.Store().AddAll(daemonReports(seed, 0)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	return d, "http://" + addr
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

// TestDaemonQueryEndpoints cross-checks the HTTP aggregations against
// direct store queries.
func TestDaemonQueryEndpoints(t *testing.T) {
	d, base := startDaemon(t, Config{}, 200)
	var count struct {
		Count *int `json:"count"`
	}
	getJSON(t, base+"/query/count", &count)
	if count.Count == nil || *count.Count != 200 {
		t.Fatalf("/query/count = %+v, want 200", count)
	}
	var bySev struct {
		Groups map[string]int `json:"groups"`
	}
	getJSON(t, base+"/query/count?by=severity", &bySev)
	want := d.Store().Query().CountBySeverity()
	for s, n := range want {
		if bySev.Groups[s.String()] != n {
			t.Errorf("by=severity[%s] = %d, want %d", s, bySev.Groups[s.String()], n)
		}
	}
	// Filtered + grouped, with canonicalized device spelling.
	var nested struct {
		Groups map[string]map[string]int `json:"groups"`
	}
	getJSON(t, base+"/query/count?by=year-severity&device=rsw", &nested)
	if len(nested.Groups) == 0 {
		t.Error("year-severity with device filter returned no groups")
	}
	var res struct {
		Groups map[string]struct {
			Count int     `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"groups"`
	}
	getJSON(t, base+"/query/resolutions", &res)
	if res.Groups["all"].Count != 200 || res.Groups["all"].P99 < res.Groups["all"].P50 {
		t.Errorf("/query/resolutions = %+v", res.Groups["all"])
	}
	getJSON(t, base+"/query/resolutions?by=device", &res)
	if len(res.Groups) == 0 {
		t.Error("resolutions by=device empty")
	}
	// Infinite time bounds are valid numbers.
	getJSON(t, base+"/query/count?since=-Inf&until=%2BInf", &count)
	if count.Count == nil || *count.Count != 200 {
		t.Errorf("/query/count over (-Inf, +Inf) = %+v, want 200", count)
	}
	// Bad requests 400, including a NaN time bound.
	for _, bad := range []string{
		"/query/count?by=bogus", "/query/count?year=twenty",
		"/query/count?device=nope", "/query/resolutions?by=severity",
		"/query/count?since=NaN", "/query/count?year=2013&until=nan",
		"/query/count?yaer=2017", "/query/count?year=2013&year=2014",
	} {
		resp, err := http.Get(base + bad)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDaemonCacheGenerationBump is the LRU invalidation-on-ingest test:
// a repeated query hits the cache and revalidates to 304; POST /ingest
// bumps the generation, after which the same query misses (new key, new
// ETag) and returns the new result.
func TestDaemonCacheGenerationBump(t *testing.T) {
	d, base := startDaemon(t, Config{}, 50)
	url := base + "/query/count"

	resp1 := getJSON(t, url, nil)
	if xc := resp1.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("first query X-Cache = %q", xc)
	}
	etag := resp1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on query response")
	}
	resp2 := getJSON(t, url, nil)
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeated query X-Cache = %q, want hit", xc)
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("ETag changed without ingest: %q -> %q", etag, resp2.Header.Get("ETag"))
	}
	// Conditional revalidation: 304 without recompute.
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp3.StatusCode)
	}

	// Ingest bumps the generation: same query, new ETag, cache miss, new
	// count.
	batch, _ := json.Marshal(daemonReports(25, 1000))
	ir, err := http.Post(base+"/ingest", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	ingestBody, _ := io.ReadAll(ir.Body)
	_ = ir.Body.Close()
	if ir.StatusCode != 200 {
		t.Fatalf("POST /ingest: %d %s", ir.StatusCode, ingestBody)
	}
	if !strings.Contains(string(ingestBody), `"ingested":25`) {
		t.Errorf("ingest response = %s", ingestBody)
	}

	var after struct {
		Count *int `json:"count"`
	}
	resp4 := getJSON(t, url, &after)
	if xc := resp4.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("post-ingest query X-Cache = %q, want miss", xc)
	}
	if resp4.Header.Get("ETag") == etag {
		t.Error("ETag unchanged across an ingest")
	}
	if after.Count == nil || *after.Count != 75 {
		t.Errorf("post-ingest count = %+v, want 75", after)
	}
	// The stale pre-ingest ETag no longer revalidates.
	req2, _ := http.NewRequest("GET", url, nil)
	req2.Header.Set("If-None-Match", etag)
	resp5, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp5.Body.Close()
	if resp5.StatusCode == http.StatusNotModified {
		t.Error("stale ETag revalidated after ingest")
	}
	if g := d.Generation(); g != 2 {
		t.Errorf("generation = %d, want 2 (seed batch + ingest)", g)
	}
}

// TestDaemonIngestRejectsBadBatch pins atomic rejection over HTTP:
// invalid reports and duplicate IDs answer 400 without partial ingest or
// a generation bump.
func TestDaemonIngestRejectsBadBatch(t *testing.T) {
	d, base := startDaemon(t, Config{}, 10)
	gen := d.Generation()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`not json`); code != 400 {
		t.Errorf("malformed body: %d", code)
	}
	if code := post(`[{"severity":9,"device":"rsw001.cl001.dc1.ra"}]`); code != 400 {
		t.Errorf("invalid report: %d", code)
	}
	if code := post(`[{"id":1,"severity":3,"device":"rsw001.cl001.dc1.ra","duration":1,"resolution":2,"year":2017}]`); code != 400 {
		t.Errorf("duplicate ID: %d", code)
	}
	if d.Generation() != gen {
		t.Error("generation bumped by rejected ingest")
	}
	var count struct {
		Count *int `json:"count"`
	}
	getJSON(t, base+"/query/count", &count)
	if *count.Count != 10 {
		t.Errorf("count after rejected batches = %d", *count.Count)
	}
	// GET on /ingest and POST on query endpoints are method errors.
	resp, _ := http.Get(base + "/ingest")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: %d", resp.StatusCode)
	}
}

// TestDaemonIngestRejectsIDBelowMax: report IDs are append-only, so a
// batch carrying an explicit ID below the largest held one answers 400
// and ingests nothing, even when no report holds that ID. Such a report
// was once appended out of ID order.
func TestDaemonIngestRejectsIDBelowMax(t *testing.T) {
	d, base := startDaemon(t, Config{}, 10)
	post := func(id int) int {
		t.Helper()
		body := fmt.Sprintf(`[{"id":%d,"severity":3,"device":"rsw001.cl001.dc1.ra","duration":1,"resolution":2,"year":2017}]`, id)
		resp, err := http.Post(base+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(20); code != 200 {
		t.Fatalf("ID 20 above the largest: %d, want 200", code)
	}
	gen := d.Generation()
	if code := post(15); code != 400 {
		t.Errorf("ID 15 below the largest: %d, want 400", code)
	}
	if d.Generation() != gen {
		t.Error("generation bumped by rejected ingest")
	}
	var count struct {
		Count *int `json:"count"`
	}
	getJSON(t, base+"/query/count", &count)
	if *count.Count != 11 {
		t.Errorf("count after rejected batch = %d, want 11", *count.Count)
	}
}

// TestDaemonStatsAndMetrics: /stats reads the serve_* counters of the
// attached registry. Without one the daemon counts on a private registry,
// so /stats still counts while /metrics shows no serve_* series.
func TestDaemonStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, base := startDaemon(t, Config{Obs: observe.Observe{Metrics: reg}}, 20)
	getJSON(t, base+"/query/count", nil)
	resp := getJSON(t, base+"/query/count", nil)
	req, _ := http.NewRequest("GET", base+"/query/count", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		_ = resp.Body.Close()
	}
	var st statsResponse
	getJSON(t, base+"/stats", &st)
	if st.Reports != 20 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.NotModified != 1 {
		t.Errorf("cache stats = hits %d misses %d not modified %d, want 1/1/1", st.CacheHits, st.CacheMisses, st.NotModified)
	}
	for name, v := range map[string]uint64{
		"serve_cache_hits_total":   st.CacheHits,
		"serve_cache_misses_total": st.CacheMisses,
		"serve_not_modified_total": st.NotModified,
	} {
		if got := reg.Counter(name).Value(); uint64(got) != v {
			t.Errorf("%s = %d, /stats says %d", name, got, v)
		}
	}
	if v := reg.Counter("serve_queries_total").Value(); v != 3 {
		t.Errorf("serve_queries_total = %d", v)
	}

	_, bare := startDaemon(t, Config{}, 20)
	getJSON(t, bare+"/query/count", nil)
	getJSON(t, bare+"/query/count", nil)
	getJSON(t, bare+"/stats", &st)
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("uninstrumented cache stats = hits %d misses %d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	metrics, err := http.Get(bare + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(metrics.Body)
	_ = metrics.Body.Close()
	if strings.Contains(string(body), "serve_") {
		t.Errorf("uninstrumented /metrics shows serve_* series:\n%s", body)
	}
}

// TestDaemonQueryCountsOnce pins the store's query counters to one
// increment per daemon query: a single cache miss on an indexed query
// raises sev_queries_indexed_total and the sev_query_candidates count by
// exactly 1, and leaves sev_queries_scan_total alone.
func TestDaemonQueryCountsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	_, base := startDaemon(t, Config{Obs: observe.Observe{Metrics: reg}}, 20)
	before := reg.Snapshot()
	resp := getJSON(t, base+"/query/count?year=2013", nil)
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q, want miss", xc)
	}
	after := reg.Snapshot()
	if d := after.Counters["sev_queries_indexed_total"] - before.Counters["sev_queries_indexed_total"]; d != 1 {
		t.Errorf("sev_queries_indexed_total rose by %d, want 1", d)
	}
	if d := after.Counters["sev_queries_scan_total"] - before.Counters["sev_queries_scan_total"]; d != 0 {
		t.Errorf("sev_queries_scan_total rose by %d, want 0", d)
	}
	if d := after.Histograms["sev_query_candidates"].Count - before.Histograms["sev_query_candidates"].Count; d != 1 {
		t.Errorf("sev_query_candidates observations rose by %d, want 1", d)
	}
}

// TestDaemonIngestBodyCap: a POST /ingest body over maxIngestBytes is
// refused with 413 and ingests nothing.
func TestDaemonIngestBodyCap(t *testing.T) {
	d, _ := startDaemon(t, Config{}, 10)
	gen, n := d.Generation(), d.Store().Len()
	body := append([]byte("["), bytes.Repeat([]byte(" "), maxIngestBytes)...)
	body = append(body, ']')
	rec := httptest.NewRecorder()
	d.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /ingest: %d %s, want 413", rec.Code, rec.Body)
	}
	if d.Generation() != gen || d.Store().Len() != n {
		t.Errorf("oversized batch changed the store: generation %d -> %d, len %d -> %d",
			gen, d.Generation(), n, d.Store().Len())
	}
}

// TestDaemonLRUCapacityEviction: a cache smaller than the query set
// still serves correct results, just with misses.
func TestDaemonLRUCapacityEviction(t *testing.T) {
	_, base := startDaemon(t, Config{CacheEntries: 2}, 30)
	urls := []string{
		base + "/query/count",
		base + "/query/count?by=severity",
		base + "/query/count?by=year",
		base + "/query/count?by=device",
	}
	for range [3]int{} {
		for _, u := range urls {
			getJSON(t, u, nil)
		}
	}
	var st statsResponse
	getJSON(t, base+"/stats", &st)
	if st.CacheEntries > 2 {
		t.Errorf("cache entries = %d, cap 2", st.CacheEntries)
	}
}

// TestDaemonNormalizedKeys: different spellings of one query share a
// cache entry.
func TestDaemonNormalizedKeys(t *testing.T) {
	_, base := startDaemon(t, Config{}, 20)
	r1 := getJSON(t, base+"/query/count?device=rsw&year=2013", nil)
	if r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first spelling: %q", r1.Header.Get("X-Cache"))
	}
	r2 := getJSON(t, base+"/query/count?year=2013&device=RSW", nil)
	if r2.Header.Get("X-Cache") != "hit" {
		t.Errorf("re-spelled query X-Cache = %q, want hit", r2.Header.Get("X-Cache"))
	}
	if r1.Header.Get("ETag") != r2.Header.Get("ETag") {
		t.Errorf("spellings got different ETags: %q vs %q", r1.Header.Get("ETag"), r2.Header.Get("ETag"))
	}
}

// TestDaemonString is a smoke test for the log description.
func TestDaemonString(t *testing.T) {
	cfg := Config{CacheEntries: 8, Addr: "127.0.0.1:0"}
	d, err := NewDaemon(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if got := fmt.Sprint(d); got != "dcnrd{cache: 8}" {
		t.Errorf("String = %q", got)
	}
}
