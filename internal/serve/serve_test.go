package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dcnr/internal/obs"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/observe"
)

// TestServerLifecycle pins the three-phase contract: Register before
// Start, Start binds ":0" and returns the address, Shutdown severs and
// joins, and a second Shutdown is a no-op. It also pins the connection
// timeouts: header, write and idle bounds are set, and ReadTimeout is not
// (it would cancel a long /debug/pprof/profile).
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
	if got := s.srv.ReadHeaderTimeout; got != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", got)
	}
	if got := s.srv.WriteTimeout; got != 30*time.Second {
		t.Errorf("WriteTimeout = %v, want 30s", got)
	}
	if got := s.srv.IdleTimeout; got != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", got)
	}
	if got := s.srv.ReadTimeout; got != 0 {
		t.Errorf("ReadTimeout = %v, want none", got)
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
	for _, path := range []string{"/metrics/history", "/metrics/history/events"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404 (no metric history)", path, code)
		}
	}
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars: %d, want 404 (no expvar exposition)", code)
	}
}

// TestServerMetricsOwnRegistry pins that each Server's /metrics exposes
// its own registry: a server built later over another registry does not
// take over an earlier one's exposition, and a nil registry serves an
// empty body.
func TestServerMetricsOwnRegistry(t *testing.T) {
	start := func(reg *obs.Registry) string {
		t.Helper()
		s := New(Options{Addr: "127.0.0.1:0", Metrics: reg, Introspection: true})
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Shutdown)
		return addr
	}
	metrics := func(addr string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/metrics: status %d", addr, resp.StatusCode)
		}
		return string(body)
	}
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Counter("a_total").Inc()
	b.Counter("b_total").Inc()
	addrA := start(a)
	addrB := start(b)
	addrNil := start(nil)
	if body := metrics(addrA); !strings.Contains(body, "a_total 1") || strings.Contains(body, "b_total") {
		t.Errorf("server A /metrics:\n%s", body)
	}
	if body := metrics(addrB); !strings.Contains(body, "b_total 1") || strings.Contains(body, "a_total") {
		t.Errorf("server B /metrics:\n%s", body)
	}
	if body := metrics(addrNil); body != "" {
		t.Errorf("nil-registry /metrics = %q, want empty", body)
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
	for _, bad := range []struct {
		cfg  Config
		want string
	}{
		{Config{CacheEntries: -5}, "cache capacity"},
		{Config{Obs: observe.Observe{Trace: obs.NewTracer()}}, "Obs.Trace"},
		{Config{Obs: observe.Observe{Timeline: timeline.New()}}, "Obs.Timeline"},
	} {
		if err := bad.cfg.Validate(); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("config %+v: Validate() = %v, want error containing %q", bad.cfg, err, bad.want)
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
