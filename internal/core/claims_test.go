package core

import (
	"fmt"
	"testing"

	"dcnr/internal/backbone"
	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/obs"
	"dcnr/internal/sev"
	"dcnr/internal/tickets"
)

func TestIntraClaimsPassOnReferenceSeed(t *testing.T) {
	a := intraAnalysis(t)
	results := a.VerifyIntraClaims()
	if len(results) < 10 {
		t.Fatalf("only %d intra claims", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Errorf("duplicate claim ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Claim == "" || r.Detail == "" {
			t.Errorf("claim %s missing text", r.ID)
		}
		if !r.Pass {
			t.Errorf("claim %s failed on reference seed: %s (%s)", r.ID, r.Claim, r.Detail)
		}
	}
}

func TestInterClaimsPassOnReferenceSeed(t *testing.T) {
	a := interAnalysis(t)
	results := a.VerifyInterClaims()
	if len(results) < 6 {
		t.Fatalf("only %d inter claims", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("claim %s failed on reference seed: %s (%s)", r.ID, r.Claim, r.Detail)
		}
	}
}

// garbageStore holds a dataset that plainly does not exhibit the paper's
// shapes: 50 identical CSA SEVs in 2011.
func garbageStore(t *testing.T) *sev.Store {
	t.Helper()
	store := sev.NewStore()
	for i := 0; i < 50; i++ {
		if _, err := store.Add(sev.Report{
			Severity:   sev.Sev1,
			Device:     "csa001.dc1.ra",
			RootCauses: []sev.RootCause{sev.Capacity},
			Start:      float64(i),
			Duration:   1,
			Resolution: 1,
			Year:       2011,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestIntraClaimsFailOnGarbageData(t *testing.T) {
	// A dataset that plainly does not exhibit the paper's shapes must
	// fail claims — the verifier cannot be a rubber stamp.
	a := NewIntraAnalysis(garbageStore(t), fleet.New(1))
	results := a.VerifyIntraClaims()
	failures := 0
	for _, r := range results {
		if !r.Pass {
			failures++
		}
	}
	if failures < 5 {
		t.Errorf("garbage dataset passed almost everything (%d failures of %d)", failures, len(results))
	}
}

// TestClaimsMatchReference requires the claim verifiers, which read one
// count table and sorted per-edge columns, to grade every claim exactly as
// the reference built from the public per-figure methods does (ID, Claim,
// Detail and Pass), on simulated datasets at three seeds and two scales,
// on the garbage dataset, and on empty ones.
func TestClaimsMatchReference(t *testing.T) {
	check := func(label string, got, want []ClaimResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d claims, reference %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: claim %d = %+v, reference %+v", label, i, got[i], want[i])
			}
		}
	}
	for _, seed := range []uint64{20181031, 1, 7} {
		for _, scale := range []int{1, 2} {
			label := fmt.Sprintf("seed %d scale %d", seed, scale)
			fl := fleet.New(scale)
			d, err := faults.NewDriver(fl, seed)
			if err != nil {
				t.Fatal(err)
			}
			store, err := d.Run(fleet.FirstYear, fleet.LastYear)
			if err != nil {
				t.Fatal(err)
			}
			intra := NewIntraAnalysis(store, fl)
			check(label+" intra", intra.VerifyIntraClaims(), refIntraClaims(intra))

			cfg := backbone.DefaultConfig()
			cfg.Seed, cfg.Edges = seed, cfg.Edges*scale
			topo, err := backbone.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			downs, err := topo.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coll := tickets.NewCollector()
			coll.WindowHours = cfg.WindowHours()
			for _, n := range tickets.Generate(topo, downs) {
				if err := coll.Ingest(n); err != nil {
					t.Fatal(err)
				}
			}
			inter, err := NewInterAnalysis(topo, coll.Downtimes(), cfg.WindowHours())
			if err != nil {
				t.Fatal(err)
			}
			check(label+" inter", inter.VerifyInterClaims(), refInterClaims(inter))
			if seed == 20181031 && scale == 1 {
				empty, err := NewInterAnalysis(topo, nil, cfg.WindowHours())
				if err != nil {
					t.Fatal(err)
				}
				check("no downtimes", empty.VerifyInterClaims(), refInterClaims(empty))
			}
		}
	}
	garbage := NewIntraAnalysis(garbageStore(t), fleet.New(1))
	check("garbage", garbage.VerifyIntraClaims(), refIntraClaims(garbage))
	empty := NewIntraAnalysis(sev.NewStore(), fleet.New(1))
	check("empty store", empty.VerifyIntraClaims(), refIntraClaims(empty))
}

// TestClaimsStoreQueries pins how often grading the §5 claims reads the
// store: the count table, the root-cause counts and the resolution
// samples, so at most three queries, indexed or scan.
func TestClaimsStoreQueries(t *testing.T) {
	a := intraAnalysis(t)
	store := sev.NewStore()
	if _, err := store.AddAll(a.Store.All()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.Instrument(reg)
	NewIntraAnalysis(store, a.Fleet).VerifyIntraClaims()
	snap := reg.Snapshot()
	if n := snap.Counters["sev_queries_indexed_total"] + snap.Counters["sev_queries_scan_total"]; n > 3 {
		t.Errorf("VerifyIntraClaims issued %d store queries, want at most 3", n)
	}
}
