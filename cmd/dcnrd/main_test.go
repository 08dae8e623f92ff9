package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dcnr"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the daemon goroutine
// writes its banner while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startTestDaemon runs runDaemon against a loopback listener and returns
// the bound address plus the daemon's stderr. Cleanup delivers the stop
// signal and joins the daemon goroutine, failing the test if it exited
// early or dirty.
func startTestDaemon(t *testing.T, o options) (string, *syncBuffer) {
	t.Helper()
	o.addr = "127.0.0.1:0"
	var out syncBuffer
	ready := make(chan string, 1)
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() { errc <- runDaemon(o, &out, func(a string) { ready <- a }, stop) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v\nstderr: %s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	t.Cleanup(func() {
		stop <- os.Interrupt
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("daemon exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not stop on signal")
		}
	})
	return addr, &out
}

// TestDaemonEndToEnd drives the full dcnrd lifecycle over a real
// listener: start empty, stream a batch in over POST /ingest, query it
// back through the cache, check the obs endpoints, and shut down on
// signal.
func TestDaemonEndToEnd(t *testing.T) {
	addr, out := startTestDaemon(t, options{cache: 64})
	base := "http://" + addr

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp, string(body)
	}

	if resp, body := get("/query/count"); resp.StatusCode != 200 || !strings.Contains(body, `"count":0`) {
		t.Fatalf("empty daemon /query/count: %d %s", resp.StatusCode, body)
	}
	batch := `[{"severity":2,"device":"rsw001.cl001.dc1.ra","duration":1,"resolution":3,"year":2015},
	           {"severity":1,"device":"csa001.dc1.ra","duration":2,"resolution":5,"year":2016}]`
	resp, err := http.Post(base+"/ingest", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(ib), `"ingested":2`) {
		t.Fatalf("POST /ingest: %d %s", resp.StatusCode, ib)
	}

	r1, body := get("/query/count?by=device")
	if r1.Header.Get("X-Cache") != "miss" || !strings.Contains(body, `"RSW":1`) {
		t.Errorf("first query: X-Cache=%q body=%s", r1.Header.Get("X-Cache"), body)
	}
	r2, _ := get("/query/count?by=device")
	if r2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat query X-Cache = %q, want hit", r2.Header.Get("X-Cache"))
	}
	if _, body := get("/stats"); !strings.Contains(body, `"reports":2`) {
		t.Errorf("/stats = %s", body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "serve_queries_total") {
		t.Errorf("/metrics missing serve series: %s", body)
	}
	if resp, body := get("/healthz"); resp.StatusCode != 200 || body != "ok\n" {
		t.Errorf("/healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/metrics/history"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics/history: %d, want 404 (no metric history)", resp.StatusCode)
	}
	if !strings.Contains(out.String(), "serving on http://"+addr) {
		t.Errorf("missing banner in stderr: %s", out.String())
	}
}

// hotMix is the twelve-query paper-weighted mix that dcnrbench's
// query-hot and query-ingest workloads replay, one cache key per path.
var hotMix = []string{
	"/query/count?by=device",
	"/query/count?by=year",
	"/query/count?by=severity",
	"/query/count?by=year-severity",
	"/query/count?by=year-device",
	"/query/count?by=year-design",
	"/query/count?by=cause",
	"/query/resolutions?by=device",
	"/query/resolutions?by=year",
	"/query/resolutions",
	"/query/count?by=year&device=RSW",
	"/query/count?severity=3",
}

// TestDaemonServesHotMix self-hosts the daemon on a simulated dataset and
// has two clients replay the hot mix. It checks only invariants that do
// not depend on the machine: every response is 200, traffic flows, the
// repeated mix is served mostly from cache, p99 stays under a generous
// bound, and a cache hit returns exactly the bytes its miss computed.
func TestDaemonServesHotMix(t *testing.T) {
	addr, _ := startTestDaemon(t, options{simulate: true, seed: 7, scale: 1, cache: 64})
	base := "http://" + addr
	const clients, rounds = 2, 5
	type sample struct {
		path, cache, body string
		latency           time.Duration
	}
	got := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(hotMix) {
				path := hotMix[(c+i)%len(hotMix)]
				t0 := time.Now()
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d, read error %v", path, resp.StatusCode, err)
					return
				}
				got[c] = append(got[c], sample{path, resp.Header.Get("X-Cache"), string(body), time.Since(t0)})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if t.Failed() {
		return
	}

	var latencies []time.Duration
	hits := 0
	missBody := map[string]string{}
	for _, samples := range got {
		for _, s := range samples {
			latencies = append(latencies, s.latency)
			switch s.cache {
			case "hit":
				hits++
			case "miss":
				missBody[s.path] = s.body
			default:
				t.Errorf("GET %s: X-Cache = %q", s.path, s.cache)
			}
		}
	}
	n := len(latencies)
	if qps := float64(n) / elapsed.Seconds(); !(qps > 0) {
		t.Errorf("qps = %v over %d requests", qps, n)
	}
	if rate := float64(hits) / float64(n); rate <= 0.5 {
		t.Errorf("cache hit rate %.2f on the repeated mix, want > 0.5", rate)
	}
	slices.Sort(latencies)
	if p99 := latencies[(n*99+99)/100-1]; p99 >= 5*time.Second {
		t.Errorf("p99 latency %v, want < 5s", p99)
	}
	for _, samples := range got {
		for _, s := range samples {
			if want, ok := missBody[s.path]; !ok {
				t.Errorf("GET %s: never missed the cache", s.path)
			} else if s.body != want {
				t.Errorf("GET %s: %s body differs from the miss body:\n%s\nvs\n%s", s.path, s.cache, s.body, want)
			}
		}
	}
}

// TestDaemonLoadsDataset starts dcnrd with -sevs pointing at a dataset
// file and queries it back.
func TestDaemonLoadsDataset(t *testing.T) {
	st := dcnr.NewSEVStore()
	for i := range 10 {
		if _, err := st.Add(dcnr.SEVReport{
			Severity: dcnr.Severity(1 + i%3), Device: "ssw001.cl001.dc1.ra",
			Start: float64(i), Duration: 1, Resolution: 2, Year: 2013,
		}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "sevs.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	addr, out := startTestDaemon(t, options{cache: 16, sevs: path})
	resp, err := http.Get("http://" + addr + "/query/count?year=2013")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), `"count":10`) {
		t.Errorf("/query/count?year=2013 = %s", body)
	}
	if !strings.Contains(out.String(), "loaded 10 reports") {
		t.Errorf("missing load banner: %s", out.String())
	}
}

// TestDaemonFlagConflict pins the -sevs/-simulate exclusivity error.
func TestDaemonFlagConflict(t *testing.T) {
	var out syncBuffer
	err := runDaemon(options{addr: "127.0.0.1:0", sevs: "x.json", simulate: true}, &out, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}
