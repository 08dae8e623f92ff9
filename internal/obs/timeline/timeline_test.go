package timeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcnr/internal/obs"
)

func TestNilSafety(t *testing.T) {
	var tl *Timeline
	if tl.Cadence() != 0 {
		t.Errorf("nil Cadence = %v, want 0", tl.Cadence())
	}
	if tl.Column("x") != 0 {
		t.Errorf("nil Column != 0")
	}
	l := tl.Lane("sim")
	if l != nil {
		t.Fatalf("nil timeline Lane = %v, want nil", l)
	}
	l.Record(0, 1, 2)
	l.Flush()
	if n := tl.Len(); n != 0 {
		t.Errorf("nil Len = %d", n)
	}
	if s := tl.Samples(); s != nil {
		t.Errorf("nil Samples = %v", s)
	}
	if s := tl.Window(0, 1, ""); s != nil {
		t.Errorf("nil Window = %v", s)
	}
	if err := tl.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}

	var sm *Sampler
	sm.Sample(1)
	sm.Flush()
	sm.StartWall(time.Millisecond)()
	if s := NewSampler(nil, "x", obs.NewRegistry(), nil, nil); s != nil {
		t.Errorf("NewSampler(nil timeline) = %v, want nil", s)
	}
	if s := NewSampler(New(), "x", nil, nil, nil); s != nil {
		t.Errorf("NewSampler(nil registry) = %v, want nil", s)
	}
}

func TestRecordFlushAndMerge(t *testing.T) {
	tl := New()
	a, b := tl.Column("alpha"), tl.Column("beta")
	if a == b {
		t.Fatalf("columns collided: %d", a)
	}
	if again := tl.Column("alpha"); again != a {
		t.Fatalf("Column not stable: %d vs %d", again, a)
	}
	l1 := tl.Lane("one")
	l2 := tl.Lane("two")
	l1.Record(a, 1, 10)
	l1.Record(a, 3, 20)
	l2.Record(b, 2, 5)
	if tl.Len() != 0 {
		t.Fatalf("unflushed samples visible: %d", tl.Len())
	}
	l1.Flush()
	l2.Flush()
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tl.Len())
	}
	got := tl.Samples()
	want := []Sample{{T: 1, V: 10, Col: a}, {T: 2, V: 5, Col: b}, {T: 3, V: 20, Col: a}}
	if len(got) != len(want) {
		t.Fatalf("Samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	win := tl.Window(2, 3, "")
	if len(win) != 2 || win[0].T != 2 || win[1].T != 3 {
		t.Errorf("Window(2,3) = %v", win)
	}
	win = tl.Window(math.Inf(-1), math.Inf(1), "alpha")
	if len(win) != 2 || win[0].V != 10 || win[1].V != 20 {
		t.Errorf("Window(alpha) = %v", win)
	}
	if win := tl.Window(0, 10, "missing"); win != nil {
		t.Errorf("Window(missing) = %v", win)
	}
}

func TestWriteJSONL(t *testing.T) {
	tl := New()
	ev := tl.Column("des_events_fired_total")
	q := tl.Column("des_queue_depth")
	l := tl.Lane("sim")
	l.Record(ev, 24, 100)
	l.Record(q, 24, 7.5)
	l.Record(ev, 48.000001, 250)
	l.Flush()

	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":24,"m":"des_events_fired_total","v":100}
{"t":24,"m":"des_queue_depth","v":7.5}
{"t":48.000001,"m":"des_events_fired_total","v":250}
`
	if buf.String() != want {
		t.Errorf("WriteJSONL =\n%s\nwant\n%s", buf.String(), want)
	}
	// Every line must be valid JSON with the three expected keys.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec struct {
			T float64 `json:"t"`
			M string  `json:"m"`
			V float64 `json:"v"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if rec.M == "" {
			t.Errorf("line %q: empty metric", sc.Text())
		}
	}
}

func TestSamplerDeltaSuppression(t *testing.T) {
	reg := obs.NewRegistry()
	tl := New()
	s := NewSampler(tl, "sim", reg, []string{"events_total"}, []string{"depth"})
	c := reg.Counter("events_total")
	g := reg.Gauge("depth")

	s.Sample(24) // everything zero: nothing recorded
	c.Add(3)
	s.Sample(48)
	s.Sample(72) // unchanged: nothing recorded
	g.Set(2)
	c.Add(1)
	s.Sample(96)
	g.Set(0)
	s.Sample(120) // gauge returning to zero IS a change
	s.Flush()

	got := tl.Samples()
	want := []Sample{
		{T: 48, V: 3, Col: tl.Column("events_total")},
		{T: 96, V: 4, Col: tl.Column("events_total")},
		{T: 96, V: 2, Col: tl.Column("depth")},
		{T: 120, V: 0, Col: tl.Column("depth")},
	}
	if len(got) != len(want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSamplerWallTicker(t *testing.T) {
	reg := obs.NewRegistry()
	tl := New()
	s := NewSampler(tl, "wall", reg, []string{"hits"}, nil)
	reg.Counter("hits").Add(5)
	stop := s.StartWall(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for tl.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if tl.Len() == 0 {
		t.Fatal("wall ticker recorded nothing")
	}
	ss := tl.Samples()
	if ss[0].V != 5 {
		t.Errorf("wall sample = %+v, want V=5", ss[0])
	}
}

func TestServeHistory(t *testing.T) {
	tl := New()
	a := tl.Column("a")
	b := tl.Column("b")
	l := tl.Lane("sim")
	l.Record(a, 10, 1)
	l.Record(b, 20, 2)
	l.Record(a, 30, 3)
	l.Flush()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tl.ServeHistory(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	rec := get("/metrics/history")
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 3 {
		t.Errorf("full history: %d lines, want 3: %q", lines, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	rec = get("/metrics/history?from=15&to=25")
	if body := rec.Body.String(); body != `{"t":20,"m":"b","v":2}`+"\n" {
		t.Errorf("windowed = %q", body)
	}
	rec = get("/metrics/history?metric=a")
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 2 {
		t.Errorf("metric filter: %q", rec.Body.String())
	}
	// A malformed or NaN bound is rejected, not dropped: NaN compares
	// false against every sample, so it would otherwise widen the window.
	for _, q := range []string{
		"from=bogus", "to=bogus", "from=NaN", "to=NaN", "from=nan&to=10", "from=0&to=NaN",
	} {
		if rec = get("/metrics/history?" + q); rec.Code != 400 {
			t.Errorf("?%s: code %d, want 400", q, rec.Code)
		}
	}
	if rec = get("/metrics/history?from=-Inf&to=%2BInf"); rec.Code != 200 ||
		strings.Count(rec.Body.String(), "\n") != 3 {
		t.Errorf("infinite bounds: code %d body %q", rec.Code, rec.Body.String())
	}

	var nilTL *Timeline
	rec = httptest.NewRecorder()
	nilTL.ServeHistory(rec, httptest.NewRequest("GET", "/metrics/history", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Errorf("nil history: code %d body %q", rec.Code, rec.Body.String())
	}
}
