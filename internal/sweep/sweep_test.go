package sweep

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/obs"
	"dcnr/internal/obs/health"
	"dcnr/internal/obs/journal"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/observe"
)

// fastGrid is a small campaign over a single simulated year, cheap enough
// to run many times in tests.
func fastGrid() Config {
	return Config{
		Seeds: []uint64{1, 2},
		Scenarios: []Scenario{
			{Name: "baseline", FromYear: 2014, ToYear: 2014},
			{Name: "no-remediation", DisableRemediation: true, FromYear: 2014, ToYear: 2014},
		},
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var reports [3][]byte
	var streams [3]string
	for i, workers := range []int{1, 4, 4} {
		cfg := fastGrid()
		cfg.Workers = workers
		var jsonl bytes.Buffer
		cfg.Results = &jsonl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		var rep bytes.Buffer
		if err := res.WriteReport(&rep); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		reports[i] = rep.Bytes()
		streams[i] = jsonl.String()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("serial and parallel reports differ:\n%s\nvs\n%s", reports[0], reports[1])
	}
	if !bytes.Equal(reports[1], reports[2]) {
		t.Errorf("repeated parallel reports differ")
	}
	if streams[0] != streams[1] || streams[1] != streams[2] {
		t.Errorf("JSONL streams differ across workers/repeats")
	}
}

func TestSweepRunStatsContent(t *testing.T) {
	cfg := fastGrid()
	cfg.Workers = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(res.Runs))
	}
	for i, r := range res.Runs {
		if r.Run != i {
			t.Errorf("run %d records index %d", i, r.Run)
		}
		if r.Incidents <= 0 || r.Faults <= 0 {
			t.Errorf("run %d: empty simulation (faults=%d incidents=%d)", i, r.Faults, r.Incidents)
		}
		if r.FromYear != 2014 || r.ToYear != 2014 {
			t.Errorf("run %d: years [%d, %d], want [2014, 2014]", i, r.FromYear, r.ToYear)
		}
		if len(r.IncidentRate) == 0 || len(r.RootCauseMix) == 0 {
			t.Errorf("run %d: missing per-type statistics", i)
		}
	}
	// The ablation escalates every supported fault: its incident counts
	// must dwarf the baseline's, and it must carry no repair ratios.
	base, abl := res.Runs[0], res.Runs[2]
	if base.Scenario != "baseline" || abl.Scenario != "no-remediation" {
		t.Fatalf("unexpected run order: %q, %q", base.Scenario, abl.Scenario)
	}
	if abl.Incidents <= base.Incidents {
		t.Errorf("ablation incidents %d not above baseline %d", abl.Incidents, base.Incidents)
	}
	if len(base.RepairRatio) == 0 {
		t.Errorf("baseline run has no repair ratios")
	}

	// Groups aggregate in grid order with every seed contributing.
	if len(res.Report.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Report.Groups))
	}
	for _, g := range res.Report.Groups {
		if g.Seeds != 2 {
			t.Errorf("group %s: %d seeds, want 2", g.Scenario, g.Seeds)
		}
		if g.Incidents.N != 2 || g.Incidents.P5 > g.Incidents.P95 {
			t.Errorf("group %s: malformed incidents band %+v", g.Scenario, g.Incidents)
		}
		if g.Incidents.Mean < g.Incidents.P5 || g.Incidents.Mean > g.Incidents.P95 {
			t.Errorf("group %s: mean %v outside [p5, p95] band", g.Scenario, g.Incidents.Mean)
		}
	}
}

func TestSweepJSONLStreamOrdered(t *testing.T) {
	cfg := fastGrid()
	cfg.Workers = 4
	var buf bytes.Buffer
	cfg.Results = &buf
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	for i, line := range lines {
		var r RunStats
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Run != i {
			t.Errorf("line %d carries run %d; stream not in run order", i, r.Run)
		}
	}
}

func TestSweepMetricsMergedAndCampaignCounters(t *testing.T) {
	cfg := fastGrid()
	cfg.Workers = 2
	reg := obs.NewRegistry()
	cfg.Observe = observe.Observe{Metrics: reg}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The merged per-run snapshot carries the simulation's own counters,
	// summed across runs; the campaign registry itself receives nothing.
	if res.Metrics.Counters["des_events_fired_total"] == 0 {
		t.Errorf("merged snapshot missing des_events_fired_total")
	}
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("campaign registry received series: %+v", snap)
	}
}

func TestSweepUninstrumentedHasNoMetrics(t *testing.T) {
	cfg := fastGrid()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Metrics.Counters) != 0 {
		t.Errorf("uninstrumented sweep accumulated metrics: %v", res.Metrics.Counters)
	}
}

func TestSweepValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"no seeds", func(c *Config) { c.Seeds = nil }, "no seeds"},
		{"zero scale", func(c *Config) { c.Scales = []int{0} }, "Scale must be positive"},
		{"negative scale", func(c *Config) { c.Scales = []int{-2} }, "Scale must be positive"},
		{"unnamed scenario", func(c *Config) { c.Scenarios[0].Name = "" }, "has no name"},
		{"duplicate scenario", func(c *Config) { c.Scenarios[1] = c.Scenarios[0] }, "duplicate scenario"},
		{"bad scenario years", func(c *Config) { c.Scenarios[0].FromYear = 2017; c.Scenarios[0].ToYear = 2011 }, "not ordered"},
		{"bad elevation", func(c *Config) { c.Scenarios[0].ElevateYear = 2014; c.Scenarios[0].ElevateFactor = 0.5 }, "ElevateFactor"},
		{"unread health", func(c *Config) { c.Observe.Health = &health.Engine{} }, "Observe.Health"},
		{"unread journal", func(c *Config) { c.Observe.Journal = &journal.Journal{} }, "Observe.Journal"},
		{"unread timeline", func(c *Config) { c.Observe.Timeline = timeline.New() }, "Observe.Timeline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastGrid()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestSweepValidateNormalizes(t *testing.T) {
	cfg := Config{Seeds: []uint64{1}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(cfg.Scales) != 1 || cfg.Scales[0] != 1 {
		t.Errorf("Scales = %v, want [1]", cfg.Scales)
	}
	if len(cfg.Scenarios) != 1 || cfg.Scenarios[0].Name != "baseline" {
		t.Errorf("Scenarios = %+v, want a single baseline", cfg.Scenarios)
	}
	if cfg.Scenarios[0].FromYear != 2011 || cfg.Scenarios[0].ToYear != 2017 {
		t.Errorf("scenario years [%d, %d] not normalized to the study period",
			cfg.Scenarios[0].FromYear, cfg.Scenarios[0].ToYear)
	}
}

func TestSweepValidateClampsWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cfg := Config{Seeds: []uint64{1}, Workers: max + 5}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.Workers != max {
		t.Errorf("Workers = %d, want clamp to GOMAXPROCS %d", cfg.Workers, max)
	}
	// At or below the cap, the requested value stands — including the
	// "one per CPU" default of 0.
	for _, w := range []int{0, 1, max} {
		cfg := Config{Seeds: []uint64{1}, Workers: w}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(workers=%d): %v", w, err)
		}
		if cfg.Workers != w {
			t.Errorf("Workers = %d after Validate, want %d untouched", cfg.Workers, w)
		}
	}
}

func TestOrderedWriterFlushesContiguousPrefix(t *testing.T) {
	var buf bytes.Buffer
	ow := newOrderedWriter(&buf, 4)
	type rec struct {
		I int `json:"i"`
	}
	// Arrival order 2, 0, 3, 1 must still stream as 0, 1, 2, 3.
	for _, i := range []int{2, 0, 3, 1} {
		if err := ow.write(i, rec{I: i}); err != nil {
			t.Fatalf("write(%d): %v", i, err)
		}
	}
	want := "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n{\"i\":3}\n"
	if buf.String() != want {
		t.Errorf("stream = %q, want %q", buf.String(), want)
	}
	if err := ow.flushErr(); err != nil {
		t.Errorf("flushErr: %v", err)
	}
}

// failAfter fails every write after the first n bytes worth of calls.
type failAfter struct {
	calls int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > 1 {
		return 0, errWriterBroken
	}
	return len(p), nil
}

var errWriterBroken = &brokenErr{}

type brokenErr struct{}

func (*brokenErr) Error() string { return "writer broken" }

func TestOrderedWriterStickyError(t *testing.T) {
	ow := newOrderedWriter(&failAfter{}, 3)
	if err := ow.write(0, 0); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := ow.write(1, 1); err == nil {
		t.Fatalf("second write succeeded past a broken writer")
	}
	if err := ow.write(2, 2); err == nil {
		t.Fatalf("third write did not surface the sticky error")
	}
	if err := ow.flushErr(); err == nil {
		t.Fatalf("flushErr lost the sticky error")
	}
}

func TestOrderedWriterNilWriterIsNoop(t *testing.T) {
	ow := newOrderedWriter(nil, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ow.write(i, i); err != nil {
				t.Errorf("write(%d): %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestSweepBackboneLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("backbone leg is slow")
	}
	// Two identical campaigns must write byte-identical reports: the
	// backbone statistics sum per-edge values, so any map-order summation
	// would show in their last bits.
	var reports [2][]byte
	var res *Result
	for i := range reports {
		var err error
		res, err = Run(Config{
			Seeds:     []uint64{1},
			Scenarios: []Scenario{{Name: "baseline", FromYear: 2014, ToYear: 2014}},
			Backbone:  true,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var rep bytes.Buffer
		if err := res.WriteReport(&rep); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		reports[i] = rep.Bytes()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("repeated backbone campaigns wrote different reports:\n%s\nvs\n%s", reports[0], reports[1])
	}
	r := res.Runs[0]
	if r.EdgeAvailability <= 0 || r.EdgeAvailability > 1 {
		t.Errorf("edge availability %v outside (0, 1]", r.EdgeAvailability)
	}
	if r.EdgeMTBFHours <= 0 || r.EdgeMTTRHours <= 0 {
		t.Errorf("edge MTBF/MTTR not populated: %v / %v", r.EdgeMTBFHours, r.EdgeMTTRHours)
	}
	g := res.Report.Groups[0]
	if g.EdgeAvailability == nil || g.EdgeAvailability.N != 1 {
		t.Errorf("report missing edge availability band: %+v", g.EdgeAvailability)
	}
}

func TestSweepTimelineDeterministicAcrossWorkers(t *testing.T) {
	var streams [3]string
	for i, workers := range []int{1, 4, 4} {
		cfg := fastGrid()
		cfg.Workers = workers
		var tl bytes.Buffer
		cfg.Timeline = &tl
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		streams[i] = tl.String()
	}
	if streams[0] != streams[1] || streams[1] != streams[2] {
		t.Errorf("timeline streams differ across workers/repeats")
	}
	// Shape check: one header line per run, then that run's samples, all
	// valid JSON.
	lines := strings.Split(strings.TrimSuffix(streams[0], "\n"), "\n")
	headers, samples := 0, 0
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad timeline line %q: %v", line, err)
		}
		if _, ok := rec["run"]; ok {
			headers++
		} else if _, ok := rec["m"]; ok {
			samples++
		} else {
			t.Errorf("timeline line is neither header nor sample: %q", line)
		}
	}
	if headers != 4 {
		t.Errorf("got %d timeline headers, want one per run (4)", headers)
	}
	if samples == 0 {
		t.Errorf("timeline stream has no samples")
	}
}

func TestSweepTimelineWithoutMetrics(t *testing.T) {
	// A timeline alone must not switch on campaign-level metric merging:
	// Result.Metrics stays zero when Observe.Metrics is nil.
	cfg := fastGrid()
	cfg.Workers = 2
	var tl bytes.Buffer
	cfg.Timeline = &tl
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Metrics.Counters) != 0 {
		t.Errorf("uninstrumented campaign merged %d counters", len(res.Metrics.Counters))
	}
	if tl.Len() == 0 {
		t.Errorf("timeline stream is empty")
	}
}

func TestSweepStatusResources(t *testing.T) {
	cfg := fastGrid()
	cfg.Workers = 2
	st := NewStatus()
	cfg.Status = st
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cs := st.Snapshot()
	var sumEvents int64
	for _, row := range cs.Runs {
		if row.Events <= 0 {
			t.Errorf("run %d: Events = %d, want > 0", row.Run, row.Events)
		}
		if row.SimHoursPerSec <= 0 || row.EventsPerSec <= 0 {
			t.Errorf("run %d: rates = (%g sim-h/s, %g ev/s), want > 0",
				row.Run, row.SimHoursPerSec, row.EventsPerSec)
		}
		sumEvents += row.Events
	}
	if cs.Events != sumEvents {
		t.Errorf("campaign Events = %d, want sum of rows %d", cs.Events, sumEvents)
	}
	// One simulated year per run in fastGrid.
	if want := float64(len(cs.Runs)) * hoursPerYear; cs.SimHours != want {
		t.Errorf("campaign SimHours = %g, want %g", cs.SimHours, want)
	}
}
