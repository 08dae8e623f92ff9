package timeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"dcnr/internal/obs"
)

func TestNilSafety(t *testing.T) {
	var tl *Timeline
	if tl.Column("x") != 0 {
		t.Errorf("nil Column != 0")
	}
	tl.Record(0, 1, 2)
	tl.Flush()
	if n := tl.Len(); n != 0 {
		t.Errorf("nil Len = %d", n)
	}
	if s := tl.Samples(); s != nil {
		t.Errorf("nil Samples = %v", s)
	}
	if err := tl.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}

	var sm *Sampler
	sm.Sample(1)
	sm.Flush()
	if s := NewSampler(nil, obs.NewRegistry(), nil, nil); s != nil {
		t.Errorf("NewSampler(nil timeline) = %v, want nil", s)
	}
	if s := NewSampler(New(), nil, nil, nil); s != nil {
		t.Errorf("NewSampler(nil registry) = %v, want nil", s)
	}
}

// TestRecordFlushAndMerge checks that flushed samples read back in
// recording order: the timeline has one ring, so nothing is merged or
// re-sorted by time.
func TestRecordFlushAndMerge(t *testing.T) {
	tl := New()
	a, b := tl.Column("alpha"), tl.Column("beta")
	if a == b {
		t.Fatalf("columns collided: %d", a)
	}
	if again := tl.Column("alpha"); again != a {
		t.Fatalf("Column not stable: %d vs %d", again, a)
	}
	tl.Record(a, 1, 10)
	tl.Record(a, 3, 20)
	tl.Record(b, 2, 5)
	if tl.Len() != 0 {
		t.Fatalf("unflushed samples visible: %d", tl.Len())
	}
	tl.Flush()
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tl.Len())
	}
	got := tl.Samples()
	want := []Sample{{T: 1, V: 10, Col: a}, {T: 3, V: 20, Col: a}, {T: 2, V: 5, Col: b}}
	if len(got) != len(want) {
		t.Fatalf("Samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	tl := New()
	ev := tl.Column("des_events_fired_total")
	q := tl.Column("des_queue_depth")
	tl.Record(ev, 24, 100)
	tl.Record(q, 24, 7.5)
	tl.Record(ev, 48.000001, 250)
	tl.Flush()

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
	s := NewSampler(tl, reg, []string{"events_total"}, []string{"depth"})
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
