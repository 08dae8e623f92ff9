package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestWriteJSONGoldenBytes pins the exact bytes of a trace file: the
// metadata header, one directly emitted event, and a ring's records across
// several staging-buffer flushes, through the name table and three
// numeric keys. The head records exercise every branch of the
// number formatter — integers, three-decimal rounding, negative fractions,
// a seven-year sim timestamp, the scaled-integer path from 1e15 (whose
// last digits are as the float math leaves them) and the strconv fallback
// from 9e15. Any change to the ring or the encoder that moves a byte
// fails here.
func TestWriteJSONGoldenBytes(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{Name: "direct", Cat: "test", Phase: "i", TS: 2.5, PID: SimPID, TID: 4,
		Args: map[string]any{"n": 1}})
	r := tr.Ring(SimPID, 3, "lane", "span", "a", "b", "c").
		SetNames("fault", "repair")

	r.Record(0, 0, 1, 1.5, 1.0004, -0.25)
	r.Record(1, 6e10+0.123, 2.0625, -1.0625, -0.0004, 7)
	r.Record(-1, 1e15, 5e15+0.5, -1e15-2, 1e16, -2.5e16)
	const filler = 1100 // several flushes of any staging-buffer size ≤ 512
	for i := 0; i < filler; i++ {
		r.Record(int32(i%3-1), float64(i), float64(i%3), float64(i), -float64(i), 0)
	}
	r.Flush()

	var got bytes.Buffer
	if err := tr.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	want.WriteString(`{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"wall clock"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":1,"args":{"name":"simulation time (1 s = 1 simulated hour)"}},` +
		`{"name":"direct","cat":"test","ph":"i","ts":2.5,"pid":2,"tid":4,"args":{"n":1}}` +
		`,{"name":"fault","cat":"lane","ph":"X","ts":0,"dur":1,"pid":2,"tid":3,"args":{"a":1.500,"b":1.000,"c":-0.250}}` +
		`,{"name":"repair","cat":"lane","ph":"X","ts":60000000000.123,"dur":2.063,"pid":2,"tid":3,"args":{"a":-1.063,"b":-0.000,"c":7}}` +
		`,{"name":"span","cat":"lane","ph":"X","ts":1000000000000000.000,"dur":5000000000000000.000,"pid":2,"tid":3,"args":{"a":-1000000000000002.048,"b":10000000000000000.000,"c":-25000000000000000.000}}`)
	names := [3]string{"span", "fault", "repair"}
	for i := 0; i < filler; i++ {
		fmt.Fprintf(&want, `,{"name":"%s","cat":"lane","ph":"X","ts":%d,"dur":%d,"pid":2,"tid":3,"args":{"a":%d,"b":%d,"c":0}}`,
			names[i%3], i, i%3, i, -i)
	}
	want.WriteString("],\"displayTimeUnit\":\"ms\"}\n")

	if got.String() != want.String() {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("trace bytes differ at offset %d (got %d bytes, want %d):\n got  …%s\n want …%s",
			i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}
