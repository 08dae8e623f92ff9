package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzHistoriesIngest feeds a peer's /metrics/history bodies, arbitrary
// bytes, through three ingests into one history. After each ingest no
// sample at or below the previous last was added, every series holds at
// most max points, metricNames is sorted and last has not decreased. The
// samples an ingest may add are read off the body line by line the way a
// JSONL reader sees them, and each series must end as the previous one
// with those values appended, cut to its newest max.
func FuzzHistoriesIngest(f *testing.F) {
	for _, seed := range [][3]string{
		{`{"t":1,"m":"b","v":9}` + "\nnot json\n" + `{"t":1,"m":"a","v":0}` + "\n" + `{"t":2,"m":"a","v":1}`, `{"t":2,"m":"a","v":2}` + "\n" + `{"t":3,"m":"a","v":3}`, ""},
		{`{"t":5,"m":"a","v":1}` + "\n" + `{"t":3,"m":"a","v":2}`, `{"t":5,"m":"a","v":1}` + "\n" + `{"t":3,"m":"a","v":2}`, `{"t":6,"m":"a","v":3}`},
		{`{"t":-1e308,"m":"x","v":-0}` + "\r\n" + `{"m":"","t":9}`, `{"T":4,"M":"y","V":1e-9}`, "{\"t\":4,\"m\":\"y\"}\n\n{\"t\":7"},
	} {
		f.Add(seed[0], seed[1], seed[2], uint8(2))
	}
	f.Fuzz(func(t *testing.T, a, b, c string, capacity uint8) {
		if len(a)+len(b)+len(c) > 1<<16 {
			t.Skip() // keeps every line far below the reader's 1 MiB cap
		}
		n := int(capacity%8) + 1
		h := newHistories(n)
		for _, body := range []string{a, b, c} {
			prev := h.last
			want := map[string][]float64{}
			for m, vals := range h.data {
				want[m] = append([]float64(nil), vals...)
			}
			wantLast := prev
			for _, line := range strings.Split(body, "\n") {
				var s struct {
					T float64 `json:"t"`
					M string  `json:"m"`
					V float64 `json:"v"`
				}
				if json.Unmarshal([]byte(line), &s) != nil || s.M == "" || s.T <= prev {
					continue
				}
				vals := append(want[s.M], s.V)
				want[s.M] = vals[max(0, len(vals)-n):]
				wantLast = max(wantLast, s.T)
			}

			h.ingest(strings.NewReader(body))
			if h.last < prev {
				t.Fatalf("last fell from %g to %g", prev, h.last)
			}
			if h.last != wantLast {
				t.Fatalf("last = %g, want %g (the largest t added)", h.last, wantLast)
			}
			for m, vals := range h.data {
				if len(vals) > n {
					t.Fatalf("series %q holds %d points, cap %d", m, len(vals), n)
				}
			}
			if !reflect.DeepEqual(h.data, want) {
				t.Fatalf("histories = %v, want %v (previous ones plus the samples after t=%g)", h.data, want, prev)
			}
			if names := metricNames(h.data); !sort.StringsAreSorted(names) || len(names) != len(h.data) {
				t.Fatalf("metricNames = %v", names)
			}
		}
	})
}
