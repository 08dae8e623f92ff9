package timeline

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// FuzzServeHistory checks /metrics/history's parameter handling. For any
// raw query string over a small timeline, the answer is 200 or 400. A 200
// means both bounds parsed to non-NaN numbers (or were absent), and the
// body holds exactly the samples with from <= t <= to whose series is the
// requested metric (any series when none is set), one per line. The
// bounds and metric are read the way the handler reads them: the first
// value of each key, malformed pairs dropped.
func FuzzServeHistory(f *testing.F) {
	tl := New()
	a, b := tl.Column("a"), tl.Column("b")
	type point struct {
		t float64
		m string
	}
	var points []point
	lane := tl.Lane("sim")
	for _, p := range []struct {
		col int32
		t   float64
	}{{a, -1}, {a, 0}, {b, 5}, {a, 5}, {b, 50}, {a, 1e6}} {
		lane.Record(p.col, p.t, p.t+1)
		points = append(points, point{p.t, map[int32]string{a: "a", b: "b"}[p.col]})
	}
	lane.Flush()

	for _, seed := range []string{
		"", "from=5&to=50", "from=NaN", "to=NaN", "from=NaN&to=10", "from=-Inf&to=%2BInf",
		"from=%2BInf", "to=-Inf", "metric=a", "metric=unknown", "from=5&from=50",
		"metric=a&metric=b", "from=bogus", "from=1e400", "to=0x1p3", "from=%zz&to=5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/metrics/history", RawQuery: raw}}
		rec := httptest.NewRecorder()
		tl.ServeHistory(rec, req)
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("?%s: status %d, want 200 or 400", raw, rec.Code)
		}

		q, _ := url.ParseQuery(raw) // the handler drops malformed pairs too
		bound := func(key string, def float64) float64 {
			s := q.Get(key)
			if s == "" {
				return def
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) {
				t.Fatalf("?%s: 200 with a bad %s bound %q", raw, key, s)
			}
			return v
		}
		from, to, metric := bound("from", math.Inf(-1)), bound("to", math.Inf(1)), q.Get("metric")

		want := 0
		for _, p := range points {
			if from <= p.t && p.t <= to && (metric == "" || p.m == metric) {
				want++
			}
		}
		got := 0
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			var s struct {
				T float64 `json:"t"`
				M string  `json:"m"`
			}
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("?%s: line %q: %v", raw, sc.Text(), err)
			}
			if s.T < from || s.T > to {
				t.Fatalf("?%s: t=%g outside [%g, %g]", raw, s.T, from, to)
			}
			if metric != "" && s.M != metric {
				t.Fatalf("?%s: series %q, want %q", raw, s.M, metric)
			}
			got++
		}
		if got != want {
			t.Fatalf("?%s: %d samples, want %d", raw, got, want)
		}
	})
}
