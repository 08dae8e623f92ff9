package main

import (
	"strings"
	"testing"
)

// FuzzCampaignSeries feeds arbitrary /campaign bodies through the decode
// and series derivation watch uses. Whatever the body holds — negative,
// zero or huge times and counts included — every series has exactly n
// points, done, failed, faults and incidents never fall, and running is
// never negative.
func FuzzCampaignSeries(f *testing.F) {
	for _, seed := range []string{
		`{"total":3,"completed":1,"running":1,"elapsed_seconds":12,"runs":[` +
			`{"run":0,"state":"done","start_seconds":0.5,"elapsed_seconds":4,"faults":25000,"incidents":300},` +
			`{"run":1,"state":"running","start_seconds":4.5,"elapsed_seconds":7.5},` +
			`{"run":2,"state":"pending"}]}`,
		`{"elapsed_seconds":-3,"runs":[{"state":"done","start_seconds":-9,"elapsed_seconds":-1,"faults":-7,"incidents":-1}]}`,
		`{"elapsed_seconds":1e308,"runs":[{"state":"failed","start_seconds":1e308,"elapsed_seconds":1e308},` +
			`{"state":"done","faults":9223372036854775807,"incidents":9223372036854775807},` +
			`{"state":"done","faults":9223372036854775807,"incidents":1}]}`,
		`{"elapsed_seconds":0,"runs":[{"state":"running"},{"state":"bogus","start_seconds":0}]}`,
		`not json`,
	} {
		f.Add(seed, uint8(8))
	}
	f.Fuzz(func(t *testing.T, body string, width uint8) {
		cs, err := decodeCampaign(strings.NewReader(body))
		if err != nil {
			return
		}
		n := int(width)
		series := campaignSeries(cs, n)
		for i, vals := range series {
			if len(vals) != n {
				t.Fatalf("%s: %d points, want %d", seriesNames[i], len(vals), n)
			}
			for k, v := range vals {
				if v < 0 {
					t.Fatalf("%s[%d] = %g, negative", seriesNames[i], k, v)
				}
				if i != seriesRunning && k > 0 && v < vals[k-1] {
					t.Fatalf("%s fell from %g to %g at point %d", seriesNames[i], vals[k-1], v, k)
				}
			}
		}
	})
}
