package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"dcnr/internal/sev"
)

// FuzzParseParams checks the one query grammar, which dcnrd and sevquery
// share. For any raw query string on either query endpoint, a route's
// parse either rejects it or accepts it with no NaN time bound, and the
// normalized string parses again to the same normalized string. And for
// the request target path?raw over a small store, Answer errors exactly
// when the daemon's mux answers non-200, and otherwise returns the body
// the mux serves. Targets the mux routes to another endpoint (/stats,
// /metrics, ...) are skipped. The checked-in corpus
// (testdata/fuzz/FuzzParseParams) holds the twelve paper-weighted hot-mix
// paths plus the NaN, infinity, re-spelling, unknown-key, repeated-key and
// path edge cases.
func FuzzParseParams(f *testing.F) {
	var cfg Config
	d, err := NewDaemon(&cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.Shutdown)
	if _, err := d.Store().AddAll(coldReports(300, 7)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, path, raw string) {
		rt := routes[0]
		if path == routes[1].path {
			rt = routes[1]
		}
		if p, err := rt.parse(raw); err == nil {
			for _, bound := range []*float64{p.since, p.until} {
				if bound != nil && math.IsNaN(*bound) {
					t.Fatalf("%s?%s: NaN time bound accepted", path, raw)
				}
			}
			norm := p.normalized()
			again, err := rt.parse(norm)
			if err != nil {
				t.Fatalf("%s?%s: normalized form %q rejected: %v", path, raw, norm, err)
			}
			if got := again.normalized(); got != norm {
				t.Fatalf("%s?%s: normalized %q re-normalizes to %q", path, raw, norm, got)
			}
		}

		target := path + "?" + raw
		body, aerr := Answer(d.Store(), target)
		u, err := url.ParseRequestURI(target)
		if err != nil {
			// The server answers 400 before the mux sees the request.
			if aerr == nil {
				t.Fatalf("%q: Answer accepted a target the server rejects: %v", target, err)
			}
			return
		}
		req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
		if _, pattern := d.srv.mux.Handler(req); pattern != "" && pattern != routes[0].path && pattern != routes[1].path {
			return
		}
		w := httptest.NewRecorder()
		d.srv.mux.ServeHTTP(w, req)
		switch {
		case (w.Code == http.StatusOK) != (aerr == nil):
			t.Fatalf("%q: mux answered %d %q, Answer error %v", target, w.Code, w.Body, aerr)
		case aerr == nil && !bytes.Equal(w.Body.Bytes(), body):
			t.Fatalf("%q: mux body %q, Answer body %q", target, w.Body, body)
		}
	})
}

// FuzzIngest drives POST /ingest through the daemon's mux with a fuzzed
// body over a small preloaded store. A body is either refused with a 4xx,
// leaving Len and Generation unchanged, or accepted with a 200 whose
// "ingested" is exactly how far Len grew, with Generation one higher and
// echoed in the response. After every accepted body, window-only counts
// (the store's scan path) must match a brute-force scan of the reports.
// The checked-in corpus (testdata/fuzz/FuzzIngest) holds accepted, empty
// and null batches, explicit and colliding IDs, and malformed JSON.
func FuzzIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, since, until float64) {
		var cfg Config
		d, err := NewDaemon(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Shutdown()
		if _, err := d.Store().AddAll(daemonReports(20, 0)); err != nil {
			t.Fatal(err)
		}
		n, gen := d.Store().Len(), d.Store().Generation()

		w := httptest.NewRecorder()
		d.srv.mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		switch {
		case w.Code >= 400 && w.Code < 500:
			if d.Store().Len() != n || d.Store().Generation() != gen {
				t.Fatalf("refused body (%d) changed the store: len %d -> %d, generation %d -> %d",
					w.Code, n, d.Store().Len(), gen, d.Store().Generation())
			}
			return
		case w.Code != http.StatusOK:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var resp struct {
			Ingested   int    `json:"ingested"`
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted body answered %q: %v", w.Body, err)
		}
		if got := d.Store().Len(); got != n+resp.Ingested {
			t.Fatalf("len %d -> %d, but %d reported ingested", n, got, resp.Ingested)
		}
		if got := d.Store().Generation(); got != gen+1 || resp.Generation != got {
			t.Fatalf("generation %d -> %d (response %d), want one bump", gen, got, resp.Generation)
		}

		all := d.Store().All()
		for _, q := range []struct {
			query        sev.Query
			since, until bool
			name         string
		}{
			{d.Store().Query().Since(since), true, false, "since"},
			{d.Store().Query().Until(until), false, true, "until"},
			{d.Store().Query().Since(since).Until(until), true, true, "window"},
		} {
			want := 0
			for _, r := range all {
				if (!q.since || r.Start >= since) && (!q.until || r.Start < until) {
					want++
				}
			}
			if got := q.query.Count(); got != want {
				t.Fatalf("%s [%v, %v): Count %d, scan %d", q.name, since, until, got, want)
			}
		}
	})
}
