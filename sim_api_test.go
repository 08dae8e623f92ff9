package dcnr

// Tests for the unified simulation API surface: config validation and
// normalization.

import (
	"bytes"
	"io"
	"log/slog"
	"math"
	"strings"
	"testing"
)

func TestIntraConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     IntraConfig
		wantErr string
	}{
		{"negative scale", IntraConfig{Scale: -1}, "Scale must be >= 0"},
		{"unordered years", IntraConfig{FromYear: 2015, ToYear: 2012}, "not ordered"},
		{"before study", IntraConfig{FromYear: 2005, ToYear: 2012}, "outside study period"},
		{"after study", IntraConfig{FromYear: 2012, ToYear: 2025}, "outside study period"},
		{"elevation factor too low", IntraConfig{ElevateYear: 2014, ElevateFactor: 1}, "ElevateFactor must be > 1"},
		{"elevation factor NaN", IntraConfig{ElevateYear: 2014, ElevateFactor: math.NaN()}, "ElevateFactor must be"},
		{"elevation factor infinite", IntraConfig{ElevateYear: 2014, ElevateFactor: math.Inf(1)}, "ElevateFactor must be"},
		{"elevation factor without year", IntraConfig{ElevateFactor: 5, FromYear: 2014, ToYear: 2015}, "ElevateYear"},
		{"elevation outside range", IntraConfig{ElevateYear: 2011, ElevateFactor: 5, FromYear: 2014, ToYear: 2015}, "outside simulated range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestIntraConfigValidateNormalizes(t *testing.T) {
	cfg := IntraConfig{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.Scale != 1 {
		t.Errorf("Scale = %d, want 1", cfg.Scale)
	}
	if cfg.FromYear != FirstYear || cfg.ToYear != LastYear {
		t.Errorf("years [%d, %d], want the study period [%d, %d]",
			cfg.FromYear, cfg.ToYear, FirstYear, LastYear)
	}
	// Idempotent: a second pass changes nothing.
	before := cfg
	if err := cfg.Validate(); err != nil {
		t.Fatalf("second Validate: %v", err)
	}
	if cfg != before {
		t.Errorf("Validate is not idempotent: %+v vs %+v", cfg, before)
	}
	// The entry point rejects what Validate rejects, before simulating.
	if _, err := SimulateIntraDC(IntraConfig{Scale: -3}); err == nil {
		t.Errorf("SimulateIntraDC accepted a negative scale")
	}
}

func TestBackboneConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*BackboneConfig)
		wantErr string
	}{
		{"too few edges", func(c *BackboneConfig) { c.Edges = 2 }, "edges"},
		{"negative months", func(c *BackboneConfig) { c.Months = -1 }, "Months"},
		{"unread health", func(c *BackboneConfig) { c.Health = &HealthEngine{} }, "Observe.Health"},
		{"unread logger", func(c *BackboneConfig) { c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil)) }, "Observe.Logger"},
		{"unread journal", func(c *BackboneConfig) { c.Journal = NewJournal() }, "Observe.Journal"},
		{"unread timeline", func(c *BackboneConfig) { c.Timeline = NewTimeline() }, "Observe.Timeline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultBackboneConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			if _, simErr := SimulateBackbone(cfg); simErr == nil {
				t.Errorf("SimulateBackbone accepted the invalid config")
			}
		})
	}

	// The zero config normalizes to the study-sized defaults.
	var cfg BackboneConfig
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(zero): %v", err)
	}
	def := DefaultBackboneConfig()
	if cfg.Edges != def.Edges || cfg.Months != def.Months {
		t.Errorf("zero config normalized to %+v, want defaults %+v", cfg, def)
	}
}

func TestSweepFacade(t *testing.T) {
	var jsonl bytes.Buffer
	res, err := Sweep(SweepConfig{
		Seeds:     []uint64{3, 4},
		Workers:   2,
		Scenarios: []SweepScenario{{Name: "baseline", FromYear: 2014, ToYear: 2014}},
		Results:   &jsonl,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(res.Runs))
	}
	if got := len(res.Report.Groups); got != 1 {
		t.Fatalf("got %d groups, want 1", got)
	}
	if res.Report.Groups[0].Incidents.N != 2 {
		t.Errorf("incidents band N = %d, want 2", res.Report.Groups[0].Incidents.N)
	}
	if lines := strings.Count(jsonl.String(), "\n"); lines != 2 {
		t.Errorf("JSONL stream has %d lines, want 2", lines)
	}
	var rep bytes.Buffer
	if err := res.WriteReport(&rep); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if !strings.Contains(rep.String(), "\"scenario\": \"baseline\"") {
		t.Errorf("report JSON missing the scenario group")
	}
	if err := DefaultSweepScenariosValid(); err != nil {
		t.Errorf("default scenarios invalid: %v", err)
	}
}

// DefaultSweepScenariosValid checks the standard campaign passes sweep
// validation.
func DefaultSweepScenariosValid() error {
	cfg := SweepConfig{Seeds: []uint64{1}, Scenarios: DefaultSweepScenarios()}
	return cfg.Validate()
}
