package dcnr

// Cross-subsystem integration tests: the ping-failure→remediation→SEV
// path, and the vendor-ticket archive parsed back into the collector.

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"dcnr/internal/des"
	"dcnr/internal/remediation"
	"dcnr/internal/service"
	"dcnr/internal/simrand"
	"dcnr/internal/tickets"
)

// TestPingFailureToSEVPipeline drives the intra-DC ingest path end to end:
// a DevicePingFailure for one CSW (the §4.1.3 "unable to ping" trigger)
// goes to the remediation engine, which escalates it (forced), the impact
// assessor grades it, and a SEV lands in the store.
func TestPingFailureToSEVPipeline(t *testing.T) {
	netw, err := ReferenceTopology()
	if err != nil {
		t.Fatal(err)
	}
	assessor := service.NewAssessor(netw)
	store := NewSEVStore()
	sim := &des.Simulator{}
	engine := remediation.NewEngine(sim, simrand.New(1))
	engine.SetEnabled(false) // force escalation so one fault = one SEV

	failing := netw.DevicesOfType(CSW)[1].Name
	dt, err := ParseDeviceName(failing)
	if err != nil {
		t.Fatal(err)
	}
	engine.SubmitTag(dt, remediation.DevicePingFailure, 0, func(_ int32, o remediation.Outcome) {
		if o.Repaired {
			return
		}
		as, err := assessor.Assess(failing, service.ScopeDevice)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := store.Add(SEVReport{
			Severity:   as.Severity,
			Device:     failing,
			RootCauses: []RootCause{Hardware},
			Start:      sim.Now(),
			Duration:   1,
			Resolution: 2,
			Year:       FirstYear,
			Title:      "device ping failure",
			Impact:     as.Impact,
		}); err != nil {
			t.Error(err)
		}
	}, 0)
	sim.Run(math.Inf(1)) // deliver the engine's escalation callback

	if store.Len() != 1 {
		t.Fatalf("SEVs = %d, want 1", store.Len())
	}
	rep := store.All()[0]
	if rep.Device != failing || rep.Severity != Sev3 {
		t.Errorf("SEV = %+v", rep)
	}
}

// TestTicketWirePipeline drives the inter-DC ingest path end to end over
// the notice text format: simulate the backbone, format every notice as
// the message a vendor sends, parse and ingest each one, and confirm the
// analysis over what arrived matches the analysis over the generator's
// own records.
func TestTicketWirePipeline(t *testing.T) {
	cfg := DefaultBackboneConfig()
	cfg.Edges = 30
	cfg.Seed = 77
	res, err := SimulateBackbone(cfg)
	if err != nil {
		t.Fatal(err)
	}

	coll := NewTicketCollector()
	coll.WindowHours = cfg.WindowHours()
	for _, n := range res.Notices {
		parsed, err := tickets.Parse(n.Format())
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Ingest(parsed); err != nil {
			t.Fatal(err)
		}
	}

	wired, err := NewInterAnalysis(res.Topology, coll.Downtimes(), cfg.WindowHours())
	if err != nil {
		t.Fatal(err)
	}
	// The text path must be lossless: identical vendor MTTRs either way.
	direct := res.Analysis.VendorMTTR()
	overWire := wired.VendorMTTR()
	if len(direct) != len(overWire) {
		t.Fatalf("vendor counts differ: %d vs %d", len(direct), len(overWire))
	}
	for vendor, want := range direct {
		if got, ok := overWire[vendor]; !ok || got != want {
			t.Errorf("%s MTTR %v over the text path, %v direct", vendor, got, want)
		}
	}
}

// TestTicketArchiveRoundTrip writes the notice archive the way dcsim does
// (tickets.WriteAll), splits it on the blank-line separator, and replays
// every notice into a collector: the reconstructed intervals must equal
// the ones the simulation analyzed, exactly.
func TestTicketArchiveRoundTrip(t *testing.T) {
	cfg := DefaultBackboneConfig()
	cfg.Edges = 30
	cfg.Seed = 77
	res, err := SimulateBackbone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	if err := tickets.WriteAll(&archive, res.Notices); err != nil {
		t.Fatal(err)
	}
	texts := strings.Split(strings.TrimSuffix(archive.String(), "\n\n"), "\n\n")
	if len(texts) != len(res.Notices) {
		t.Fatalf("archive holds %d notices, want %d", len(texts), len(res.Notices))
	}
	coll := NewTicketCollector()
	coll.WindowHours = cfg.WindowHours()
	for _, text := range texts {
		parsed, err := tickets.Parse(text + "\n")
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Ingest(parsed); err != nil {
			t.Fatal(err)
		}
	}
	if got := coll.Downtimes(); !slices.Equal(got, res.Downtimes) {
		t.Errorf("archive round trip: %d intervals differ from the %d simulated", len(got), len(res.Downtimes))
	}
}
