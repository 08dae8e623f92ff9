package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dcnr/internal/obs"
	"dcnr/internal/obs/timeline"
)

// TestServerLifecycle pins the three-phase contract: Register before
// Start, Start binds ":0" and returns the address, Shutdown severs and
// joins, and a second Shutdown is a no-op.
func TestServerLifecycle(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", Name: "test"})
	s.Register("/ping", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "pong\n")
	}))
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "pong\n" {
		t.Errorf("/ping = %q", body)
	}
	if got := s.Addr(); got != addr {
		t.Errorf("Addr() = %q, Start returned %q", got, addr)
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	if _, err := http.Get("http://" + addr + "/ping"); err == nil {
		t.Error("server still serving after Shutdown")
	}
	if _, err := s.Start(); err == nil {
		t.Error("second Start did not error")
	}
}

// TestServerNil pins the nil contract: Register and Shutdown no-op,
// Start errors.
func TestServerNil(t *testing.T) {
	var s *Server
	s.Register("/x", http.NotFoundHandler())
	s.Shutdown()
	if _, err := s.Start(); err == nil {
		t.Error("nil Start did not error")
	}
	if s.Routes() != nil {
		t.Error("nil Routes not nil")
	}
	if s.Addr() != "" {
		t.Error("nil Addr not empty")
	}
}

// TestServerIntrospection pins the introspection suite against nil
// hooks: every endpoint answers its empty/healthy shape.
func TestServerIntrospection(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test_total").Inc()
	s := New(Options{Addr: "127.0.0.1:0", Metrics: reg, Introspection: true})
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "test_total") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz with nil engine: %d %q", code, body)
	}
	if code, _ := get("/slo"); code != 200 {
		t.Errorf("/slo: %d", code)
	}
	if code, body := get("/journal"); code != 200 || !strings.Contains(body, "{") {
		t.Errorf("/journal: %d %q", code, body)
	}
	if code, body := get("/metrics/history"); code != 200 || body != "" {
		t.Errorf("/metrics/history with nil timeline: %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "dcnr") {
		t.Errorf("/debug/vars: %d", code)
		_ = body
	}
	// Routes lists the suite in mount order.
	routes := s.Routes()
	if len(routes) == 0 || routes[0] != "/debug/vars" {
		t.Errorf("Routes() = %v", routes)
	}
}

// TestStreamSSETimeline drives the shared SSE loop against a live
// timeline subscription — the replacement for timeline.ServeEvents.
func TestStreamSSETimeline(t *testing.T) {
	tl := timeline.New(24)
	col := tl.Column("a")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		StreamSSE(w, r, tl.Subscribe)
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	lane := tl.Lane("sim")
	lane.Record(col, 5, 1)
	lane.Flush()
	tl.Close() // ends the stream so ReadAll terminates
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := "data: {\"t\":5,\"m\":\"a\",\"v\":1}\n\n"; string(body) != want {
		t.Errorf("SSE stream = %q, want %q", body, want)
	}
}

// TestWriteSSEFraming pins the multi-line chunk framing (moved from the
// timeline package with the handler).
func TestWriteSSEFraming(t *testing.T) {
	rec := httptest.NewRecorder()
	if err := writeSSE(rec, []byte("{\"a\":1}\n{\"b\":2}\n")); err != nil {
		t.Fatal(err)
	}
	want := "data: {\"a\":1}\ndata: {\"b\":2}\n\n"
	if rec.Body.String() != want {
		t.Errorf("writeSSE = %q, want %q", rec.Body.String(), want)
	}
}

// TestConfigValidate pins the self-validating config: defaults filled in
// one place, idempotent, invalid fields rejected.
func TestConfigValidate(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Addr != ":0" || c.CacheEntries != DefaultCacheEntries {
		t.Errorf("normalized zero config = %+v", c)
	}
	before := c
	if err := c.Validate(); err != nil || c != before {
		t.Errorf("Validate not idempotent: %+v -> %+v (%v)", before, c, err)
	}
	for _, bad := range []Config{
		{CacheEntries: -5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// TestLRU pins capacity eviction and recency refresh.
func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted under capacity")
	}
	c.put("c", []byte("3")) // evicts b (a was refreshed)
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used a evicted instead of b")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Zero capacity never stores.
	z := newLRU(0)
	z.put("x", []byte("1"))
	if _, ok := z.get("x"); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}
