package sev

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dcnr/internal/topology"
)

func validReport() Report {
	return Report{
		Severity:   Sev3,
		Device:     "rsw001.pod001.dc1.regiona",
		RootCauses: []RootCause{Hardware},
		Start:      100,
		Duration:   2,
		Resolution: 5,
		Year:       2011,
		Title:      "switch crash from software bug",
	}
}

func TestSeverityString(t *testing.T) {
	if Sev1.String() != "SEV1" || Sev3.String() != "SEV3" {
		t.Error("severity strings wrong")
	}
	if Severity(0).Valid() || Severity(4).Valid() {
		t.Error("invalid severities reported valid")
	}
	if !strings.Contains(Severity(9).String(), "9") {
		t.Error("out-of-range severity String")
	}
}

func TestRootCauseNames(t *testing.T) {
	want := map[RootCause]string{
		Maintenance:   "Maintenance",
		Hardware:      "Hardware",
		Configuration: "Configuration",
		Bug:           "Bug",
		Accident:      "Accidents",
		Capacity:      "Capacity planning",
		Undetermined:  "Undetermined",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if !Configuration.HumanInduced() || !Bug.HumanInduced() {
		t.Error("config and bug are human-induced")
	}
	if Hardware.HumanInduced() || Maintenance.HumanInduced() {
		t.Error("hardware/maintenance are not human-induced")
	}
}

func TestReportValidate(t *testing.T) {
	r0 := validReport()
	if err := r0.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"bad severity", func(r *Report) { r.Severity = 0 }},
		{"missing device", func(r *Report) { r.Device = "" }},
		{"unparseable device", func(r *Report) { r.Device = "mystery1" }},
		{"negative duration", func(r *Report) { r.Duration = -1 }},
		{"resolution < duration", func(r *Report) { r.Resolution = 1; r.Duration = 2 }},
		{"negative start", func(r *Report) { r.Start = -1 }},
		{"bad root cause", func(r *Report) { r.RootCauses = []RootCause{RootCause(99)} }},
		{"NaN start", func(r *Report) { r.Start = math.NaN() }},
		{"+Inf start", func(r *Report) { r.Start = math.Inf(1) }},
		{"NaN duration", func(r *Report) { r.Duration = math.NaN() }},
		{"+Inf duration", func(r *Report) { r.Duration = math.Inf(1); r.Resolution = math.Inf(1) }},
		{"NaN resolution", func(r *Report) { r.Resolution = math.NaN() }},
		{"+Inf resolution", func(r *Report) { r.Resolution = math.Inf(1) }},
	}
	for _, c := range cases {
		r := validReport()
		c.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestReportDeviceTypeAndDesign(t *testing.T) {
	r := validReport()
	dt, err := r.DeviceType()
	if err != nil || dt != topology.RSW {
		t.Errorf("DeviceType = %v, %v", dt, err)
	}
	r.Device = "csa001.dc1.regiona"
	if r.Design() != topology.DesignCluster {
		t.Error("CSA design != cluster")
	}
	r.Device = "fsw001.pod001.dc2.regionb"
	if r.Design() != topology.DesignFabric {
		t.Error("FSW design != fabric")
	}
}

func TestEffectiveRootCauses(t *testing.T) {
	r := validReport()
	r.RootCauses = nil
	got := r.EffectiveRootCauses()
	if len(got) != 1 || got[0] != Undetermined {
		t.Errorf("empty root causes → %v, want [Undetermined]", got)
	}
}

func TestStoreAddAssignsSequentialIDs(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 3; i++ {
		id, err := s.Add(validReport())
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Errorf("ID = %d, want %d", id, i)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreAddRejectsInvalid(t *testing.T) {
	s := NewStore()
	r := validReport()
	r.Device = ""
	if _, err := s.Add(r); err == nil {
		t.Error("invalid report accepted")
	}
	if s.Len() != 0 {
		t.Error("invalid report stored")
	}
}

func TestStoreGet(t *testing.T) {
	s := NewStore()
	id, _ := s.Add(validReport())
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "switch crash from software bug" {
		t.Errorf("Get returned %+v", got)
	}
	if _, err := s.Get(999); err == nil {
		t.Error("Get(999) should fail")
	}
}

func TestStoreConcurrentAdd(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := s.Add(validReport()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
	seen := make(map[int]bool)
	for _, r := range s.All() {
		if seen[r.ID] {
			t.Fatalf("duplicate ID %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func seededStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	add := func(r Report) {
		t.Helper()
		if _, err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(Report{Severity: Sev3, Device: "rsw001.cl001.dc1.ra", RootCauses: []RootCause{Hardware}, Start: 10, Duration: 1, Resolution: 2, Year: 2011})
	add(Report{Severity: Sev2, Device: "csa001.dc1.ra", RootCauses: []RootCause{Maintenance, Configuration}, Start: 9000, Duration: 3, Resolution: 8, Year: 2012})
	add(Report{Severity: Sev1, Device: "core001.dc1.ra", RootCauses: nil, Start: 40000, Duration: 5, Resolution: 50, Year: 2015})
	add(Report{Severity: Sev3, Device: "fsw001.pod001.dc2.rb", RootCauses: []RootCause{Bug}, Start: 41000, Duration: 1, Resolution: 4, Year: 2015})
	return s
}

func TestQueryFilters(t *testing.T) {
	s := seededStore(t)
	if got := s.Query().Count(); got != 4 {
		t.Errorf("all count = %d", got)
	}
	if got := s.Query().Year(2015).Count(); got != 2 {
		t.Errorf("year 2015 count = %d", got)
	}
	if got := s.Query().DeviceType(topology.CSA).Count(); got != 1 {
		t.Errorf("CSA count = %d", got)
	}
	if got := s.Query().Severity(Sev1).Count(); got != 1 {
		t.Errorf("SEV1 count = %d", got)
	}
	if got := s.Query().Design(topology.DesignFabric).Count(); got != 1 {
		t.Errorf("fabric count = %d", got)
	}
	if got := s.Query().Year(2015).Severity(Sev3).Count(); got != 1 {
		t.Errorf("combined filter count = %d", got)
	}
}

func TestQueryRootCauseMultiCounting(t *testing.T) {
	s := seededStore(t)
	// The CSA report carries both Maintenance and Configuration.
	if got := s.Query().RootCause(Maintenance).Count(); got != 1 {
		t.Errorf("maintenance count = %d", got)
	}
	if got := s.Query().RootCause(Configuration).Count(); got != 1 {
		t.Errorf("configuration count = %d", got)
	}
	// The core report has no root causes → Undetermined.
	if got := s.Query().RootCause(Undetermined).Count(); got != 1 {
		t.Errorf("undetermined count = %d", got)
	}
	byCause := s.Query().CountByRootCause()
	total := 0
	for _, n := range byCause {
		total += n
	}
	if total != 5 { // 1 + 2 (multi) + 1 + 1
		t.Errorf("root cause total = %d, want 5 (multi-counted)", total)
	}
}

func TestQueryGroupBys(t *testing.T) {
	s := seededStore(t)
	byType := s.Query().CountByDeviceType()
	if byType[topology.RSW] != 1 || byType[topology.Core] != 1 {
		t.Errorf("byType = %v", byType)
	}
	bySev := s.Query().CountBySeverity()
	if bySev[Sev3] != 2 || bySev[Sev2] != 1 || bySev[Sev1] != 1 {
		t.Errorf("bySev = %v", bySev)
	}
	byYear := s.Query().CountByYear()
	if byYear[2015] != 2 {
		t.Errorf("byYear = %v", byYear)
	}
}

func TestQueryResolutionsAndStarts(t *testing.T) {
	s := seededStore(t)
	res := s.Query().Year(2015).Resolutions()
	if len(res) != 2 {
		t.Fatalf("resolutions = %v", res)
	}
	starts := s.Query().Starts()
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			t.Fatal("starts not sorted")
		}
	}
}

func TestQueryIsValueSemantics(t *testing.T) {
	s := seededStore(t)
	base := s.Query()
	_ = base.Year(2015)
	if got := base.Count(); got != 4 {
		t.Errorf("narrowing mutated the base query: count = %d", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := seededStore(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("round trip lost reports: %d != %d", s2.Len(), s.Len())
	}
	a, b := s.All(), s2.All()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Device != b[i].Device || a[i].Severity != b[i].Severity {
			t.Errorf("report %d differs after round trip", i)
		}
	}
	// IDs continue after the max loaded ID.
	id, err := s2.Add(validReport())
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Errorf("next ID after load = %d, want 5", id)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	s := NewStore()
	if err := s.ReadJSON(strings.NewReader(`[{"severity":9,"device":"rsw1"}]`)); err == nil {
		t.Error("invalid dataset accepted")
	}
	if err := s.ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(sevLevel uint8, dur, res float64) bool {
		r := validReport()
		r.Severity = Severity(sevLevel%3 + 1)
		dur = math.Abs(math.Mod(dur, 1000))
		res = math.Abs(math.Mod(res, 1000))
		if math.IsNaN(dur) {
			dur = 0
		}
		if math.IsNaN(res) {
			res = 0
		}
		r.Duration = dur
		r.Resolution = dur + res
		s := NewStore()
		if _, err := s.Add(r); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			return false
		}
		s2 := NewStore()
		if err := s2.ReadJSON(&buf); err != nil {
			return false
		}
		got := s2.All()[0]
		return got.Severity == r.Severity && got.Duration == r.Duration
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryTimeWindow(t *testing.T) {
	s := seededStore(t)
	// Reports start at 10, 9000, 40000, 41000.
	if got := s.Query().Since(9000).Count(); got != 3 {
		t.Errorf("Since(9000) = %d, want 3", got)
	}
	if got := s.Query().Until(9000).Count(); got != 1 {
		t.Errorf("Until(9000) = %d, want 1 (half-open)", got)
	}
	if got := s.Query().Since(9000).Until(41000).Count(); got != 2 {
		t.Errorf("window [9000, 41000) = %d, want 2", got)
	}
	if got := s.Query().Since(50000).Count(); got != 0 {
		t.Errorf("empty window = %d", got)
	}
	// Composes with other filters.
	if got := s.Query().Since(9000).Severity(Sev1).Count(); got != 1 {
		t.Errorf("windowed severity = %d", got)
	}
}
