package tickets

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"dcnr/internal/backbone"
)

func sampleNotice() Notice {
	return Notice{
		TicketID:       "TKT-000001",
		Vendor:         "vendor03",
		Link:           "link0042",
		Circuit:        "CKT-00042-01",
		Edge:           "edge013",
		Continent:      backbone.Europe,
		Event:          RepairStart,
		AtHours:        123.4567,
		EstimatedHours: 4.5,
		Maintenance:    true,
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	n := sampleNotice()
	got, err := Parse(n.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got.TicketID != n.TicketID || got.Vendor != n.Vendor || got.Link != n.Link ||
		got.Edge != n.Edge || got.Continent != n.Continent || got.Event != n.Event ||
		got.Maintenance != n.Maintenance {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.AtHours != 123.4567 || got.EstimatedHours != 4.5 {
		t.Errorf("numeric fields: %v, %v", got.AtHours, got.EstimatedHours)
	}
}

func TestCompleteNoticeOmitsEstimate(t *testing.T) {
	n := sampleNotice()
	n.Event = RepairComplete
	if strings.Contains(n.Format(), "Estimated-Hours") {
		t.Error("complete notice carries an estimate")
	}
}

func TestParseToleratesUnknownHeadersAndWhitespace(t *testing.T) {
	text := sampleNotice().Format() + "X-Vendor-Noise: lorem ipsum\n  \n"
	if _, err := Parse(text); err != nil {
		t.Errorf("noise header rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"malformed line":    "Ticket-ID TKT-1\n",
		"unknown continent": strings.Replace(sampleNotice().Format(), "Europe", "Atlantis", 1),
		"unknown event":     strings.Replace(sampleNotice().Format(), "REPAIR_START", "REPAIR_MAYBE", 1),
		"bad hours":         strings.Replace(sampleNotice().Format(), "123.4567", "yesterday", 1),
		"negative hours":    strings.Replace(sampleNotice().Format(), "123.4567", "-5", 1),
		"bad maintenance":   strings.Replace(sampleNotice().Format(), "Maintenance: true", "Maintenance: maybe", 1),
		"missing required":  "Ticket-ID: TKT-1\nVendor: v\n",
	}
	for name, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func buildDowns(t *testing.T) (*backbone.Topology, []backbone.LinkDown) {
	t.Helper()
	cfg := backbone.Config{Edges: 20, Seed: 4}
	topo, err := backbone.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, downs
}

func TestGeneratePairsAndOrders(t *testing.T) {
	topo, downs := buildDowns(t)
	notices := Generate(topo, downs)
	if len(notices) != 2*len(downs) {
		t.Fatalf("notices = %d, want %d", len(notices), 2*len(downs))
	}
	starts, completes := 0, 0
	for i, n := range notices {
		if i > 0 && notices[i].AtHours < notices[i-1].AtHours {
			t.Fatal("notices not time-ordered")
		}
		switch n.Event {
		case RepairStart:
			starts++
			if n.EstimatedHours <= 0 && n.AtHours > 0 {
				// Zero-duration intervals are possible but rare; only
				// flag systematically missing estimates.
				continue
			}
		case RepairComplete:
			completes++
		}
	}
	if starts != completes {
		t.Errorf("starts %d != completes %d", starts, completes)
	}
}

func TestCollectorReconstructsIntervals(t *testing.T) {
	topo, downs := buildDowns(t)
	notices := Generate(topo, downs)
	c := NewCollector()
	for _, n := range notices {
		if err := c.Ingest(n); err != nil {
			t.Fatal(err)
		}
	}
	if c.Open() != 0 {
		t.Errorf("%d repairs left open", c.Open())
	}
	got := c.Downtimes()
	if len(got) != len(downs) {
		t.Fatalf("reconstructed %d intervals, want %d", len(got), len(downs))
	}
	// Total downtime must be preserved exactly.
	var wantSum, gotSum float64
	for _, d := range downs {
		wantSum += d.Duration()
	}
	for _, d := range got {
		gotSum += d.Duration()
	}
	if diff := wantSum - gotSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("total downtime %v != %v", gotSum, wantSum)
	}
}

// ingestText parses one notice text and ingests it, failing t on either
// error: the Format → Parse → Ingest round trip sim.Backbone runs.
func ingestText(t *testing.T, c *Collector, text string) {
	t.Helper()
	n, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(n); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorTextPath(t *testing.T) {
	c := NewCollector()
	start := sampleNotice()
	ingestText(t, c, start.Format())
	complete := start
	complete.Event = RepairComplete
	complete.AtHours = 130
	ingestText(t, c, complete.Format())
	ds := c.Downtimes()
	if len(ds) != 1 || ds[0].Duration() <= 0 {
		t.Fatalf("downtimes = %+v", ds)
	}
	if _, err := Parse("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

// TestCollectorRecordsDropNoticeText checks that completed records hold
// copies, not substrings of the notice texts they were parsed from, so a
// text can be collected once ingested.
func TestCollectorRecordsDropNoticeText(t *testing.T) {
	start := sampleNotice()
	complete := start
	complete.Event = RepairComplete
	complete.AtHours = 130
	c := NewCollector()
	var texts []string
	for _, n := range []Notice{start, complete} {
		text := n.Format()
		texts = append(texts, text)
		ingestText(t, c, text)
	}
	d := c.Downtimes()[0]
	for _, s := range []string{d.TicketID, d.Vendor, d.Link, d.Edge} {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, text := range texts {
			base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
			if p >= base && p < base+uintptr(len(text)) {
				t.Errorf("record field %q points into a notice text", s)
			}
		}
	}
}

func TestCollectorConsistencyChecks(t *testing.T) {
	c := NewCollector()
	start := sampleNotice()
	if err := c.Ingest(start); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(start); err == nil {
		t.Error("duplicate start accepted")
	}
	orphan := sampleNotice()
	orphan.TicketID = "TKT-999999"
	orphan.Event = RepairComplete
	if err := c.Ingest(orphan); err == nil {
		t.Error("orphan complete accepted")
	}
	early := start
	early.Event = RepairComplete
	early.AtHours = start.AtHours - 1
	if err := c.Ingest(early); err == nil {
		t.Error("complete before start accepted")
	}
	bad := start
	bad.Event = "REPAIR_MAYBE"
	if err := c.Ingest(bad); err == nil {
		t.Error("bad event accepted")
	}
}

func TestCollectorClipsOpenRepairs(t *testing.T) {
	c := NewCollector()
	c.WindowHours = 1000
	start := sampleNotice()
	if err := c.Ingest(start); err != nil {
		t.Fatal(err)
	}
	ds := c.Downtimes()
	if len(ds) != 1 {
		t.Fatalf("clipped downtimes = %d, want 1", len(ds))
	}
	if ds[0].End != 1000 {
		t.Errorf("clipped end = %v, want 1000", ds[0].End)
	}
	// Without a window, open repairs are excluded.
	c.WindowHours = 0
	if got := c.Downtimes(); len(got) != 0 {
		t.Errorf("unclipped downtimes = %d, want 0", len(got))
	}
}

func TestWriteAll(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Notice{sampleNotice(), sampleNotice()}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "Ticket-ID:"); got != 2 {
		t.Errorf("wrote %d notices", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(at, est float64, maint bool, which uint8) bool {
		n := sampleNotice()
		if at < 0 {
			at = -at
		}
		if at > 1e6 {
			at = 1e6
		}
		n.AtHours = at
		n.EstimatedHours = est
		n.Maintenance = maint
		n.Continent = backbone.Continents[int(which)%len(backbone.Continents)]
		got, err := Parse(n.Format())
		if err != nil {
			return false
		}
		return got.Continent == n.Continent && got.Maintenance == n.Maintenance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The allocation gates are machine-independent: Parse reads a
// well-formed notice without allocating (its header values are substrings
// of the input), and Format's only allocation is the returned string.
func TestParseAllocs(t *testing.T) {
	text := sampleNotice().Format()
	if got := testing.AllocsPerRun(100, func() { sinkNotice, sinkErr = Parse(text) }); got != 0 {
		t.Errorf("Parse allocs = %v, want 0", got)
	}
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
}

func TestFormatAllocs(t *testing.T) {
	n := sampleNotice()
	if got := testing.AllocsPerRun(100, func() { sinkText = n.Format() }); got != 1 {
		t.Errorf("Format allocs = %v, want 1", got)
	}
}

var (
	sinkNotice Notice
	sinkErr    error
	sinkText   string
)

func BenchmarkFormat(b *testing.B) {
	n := sampleNotice()
	b.ReportAllocs()
	for b.Loop() {
		sinkText = n.Format()
	}
}

// BenchmarkRoundTrip is the per-notice cost of sim.Backbone's wire round
// trip: Parse(n.Format()).
func BenchmarkRoundTrip(b *testing.B) {
	n := sampleNotice()
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if sinkNotice, err = Parse(n.Format()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	text := sampleNotice().Format()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
