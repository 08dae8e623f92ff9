package sweep

import (
	"fmt"
	"io"
	"testing"

	"dcnr/internal/backbone"
	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/sim"
)

// legGrid is a backbone campaign whose grid repeats a seed and spans two
// scales: three seed slots, two unique seeds, so four unique legs shared
// by twelve runs.
func legGrid() Config {
	return Config{
		Seeds:  []uint64{1, 2, 1},
		Scales: []int{1, 2},
		Scenarios: []Scenario{
			{Name: "baseline", FromYear: 2017, ToYear: 2017},
			{Name: "no-remediation", DisableRemediation: true, FromYear: 2017, ToYear: 2017},
		},
		Workers:  2,
		Backbone: true,
	}
}

// TestSweepBackboneLegs runs legGrid once, traced, and checks both sides
// of sharing one leg per (seed, scale). Every run's edge statistics equal
// a standalone sim.Backbone at the run's (seed, scale): sharing a leg
// across scenarios gives each run exactly what it would have simulated
// itself. And the trace holds exactly one "sweep" span per run, so span
// counts still count cells, plus one "sweep.backbone" span per leg.
func TestSweepBackboneLegs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four backbones")
	}
	cfg := legGrid()
	tr := obs.NewTracer()
	cfg.Observe = observe.Observe{Trace: tr}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := map[legKey]edgeStats{}
	for _, r := range res.Runs {
		k := legKey{r.Seed, r.Scale}
		e, ok := want[k]
		if !ok {
			bcfg := backbone.DefaultConfig()
			bcfg.Seed = r.Seed
			bcfg.Edges *= r.Scale
			bres, err := sim.Backbone(bcfg)
			if err != nil {
				t.Fatal(err)
			}
			e = backboneStats(bres.Analysis)
			want[k] = e
		}
		got := edgeStats{r.EdgeAvailability, r.EdgeMTBFHours, r.EdgeMTTRHours}
		if got != e {
			t.Errorf("run %d (%s seed %d scale %d): edge stats %+v, standalone %+v",
				r.Run, r.Scenario, r.Seed, r.Scale, got, e)
		}
	}
	if len(res.Runs) != 12 || len(want) != 4 {
		t.Fatalf("grid has %d runs over %d (seed, scale) legs, want 12 over 4", len(res.Runs), len(want))
	}

	var runs int
	legs := map[string]int{}
	for _, e := range tr.Events() {
		if e.Phase != "X" {
			continue
		}
		switch e.Cat {
		case "sweep":
			runs++
		case "sweep.backbone":
			legs[e.Name]++
		}
	}
	if runs != len(res.Runs) {
		t.Errorf("%d sweep spans, want one per run (%d)", runs, len(res.Runs))
	}
	if len(legs) != len(want) {
		t.Errorf("backbone leg spans %v, want %d distinct legs", legs, len(want))
	}
	for k := range want {
		name := fmt.Sprintf("backbone/seed%d/x%d", k.seed, k.scale)
		if legs[name] != 1 {
			t.Errorf("%d spans named %s, want 1", legs[name], name)
		}
	}
}

// TestSweepMetricsEncode checks that the merged snapshot serializes with
// and without the backbone leg: an intra-DC run drains its simulator with
// an unbounded Run, and no gauge may carry the +Inf clock it leaves.
func TestSweepMetricsEncode(t *testing.T) {
	for _, bb := range []bool{false, true} {
		if bb && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("backbone=%v", bb), func(t *testing.T) {
			cfg := fastGrid()
			cfg.Seeds = cfg.Seeds[:1]
			cfg.Backbone = bb
			cfg.Observe = observe.Observe{Metrics: obs.NewRegistry()}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Metrics.WriteJSON(io.Discard); err != nil {
				t.Errorf("Result.Metrics.WriteJSON: %v", err)
			}
		})
	}
}
