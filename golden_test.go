package dcnr_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dcnr"
	"dcnr/internal/tickets"
)

// TestSimulateIntraDCGoldenBytes pins the exact bytes of one short
// intra-DC run: the SEV dataset, the causal journal and the metrics
// timeline. The range starts in 2012 so both the manual repair desk and
// automated remediation run, and ends in 2015 so fabric racks are named
// too. The other determinism tests compare a run only with itself; this
// one catches a change that is deterministic but different, such as a
// reordered random draw or a renamed device. A deliberate change to the
// simulated output updates these digests, and the benchmark's reference
// digests with them.
func TestSimulateIntraDCGoldenBytes(t *testing.T) {
	jnl := dcnr.NewJournal()
	tl := dcnr.NewTimeline()
	cfg := dcnr.IntraConfig{Seed: 7, FromYear: 2012, ToYear: 2015}
	cfg.Observe.Journal = jnl
	cfg.Observe.Timeline = tl
	res, err := dcnr.SimulateIntraDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		write      func(*bytes.Buffer) error
	}{
		{"sevs.json", "32193582f3d2012c1dc7b6882a9e438ce01fad78ea6ad7a57aa0d0a1ac70d8b1", func(b *bytes.Buffer) error { return res.Store.WriteJSON(b) }},
		{"journal", "02a22a6ecc967678ee6da5551fb786e5251f22cb650ab9f8432635a525f1f8bc", func(b *bytes.Buffer) error { return jnl.Index().WriteJSONL(b) }},
		{"timeline", "1bbef8ef9425983a3a28886b9d8f57dfbb9fb055eba919dfba7edc64e8912a01", func(b *bytes.Buffer) error { return tl.WriteJSONL(b) }},
	} {
		if got := goldenDigest(t, c.write); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// goldenDigest is the hex SHA-256 of what write produces.
func goldenDigest(t *testing.T, write func(*bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestSweepGoldenBytes pins the report and the per-run JSONL of a small
// campaign: two seeds, the three default scenarios, and the backbone leg
// joined into every run. Two workers, so the bytes also cover the
// ordered streaming under concurrency.
func TestSweepGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a six-run campaign")
	}
	var runs bytes.Buffer
	res, err := dcnr.Sweep(dcnr.SweepConfig{
		Seeds:     []uint64{1, 2},
		Scenarios: dcnr.DefaultSweepScenarios(),
		Workers:   2,
		Backbone:  true,
		Results:   &runs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := goldenDigest(t, func(b *bytes.Buffer) error { return res.WriteReport(b) }), "dc57220570a2e7bb277abd7f610ec3516f36682174f74b8be5c7ccd6a9824ebf"; got != want {
		t.Errorf("sweep_report.json sha256 = %s, want %s", got, want)
	}
	if got, want := goldenDigest(t, func(b *bytes.Buffer) error { _, err := b.Write(runs.Bytes()); return err }), "35205f601c46c5dd6b7e6e14f27f4a0e4de2219ebef16c1eab918f733f4cec98"; got != want {
		t.Errorf("runs JSONL sha256 = %s, want %s", got, want)
	}
}

// TestBackboneTicketsGoldenBytes pins the ticket archive of one seed-7
// backbone run: every notice's text, in stream order, exactly as
// tickets.WriteAll writes it (dcsim's tickets.txt).
func TestBackboneTicketsGoldenBytes(t *testing.T) {
	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = 7
	res, err := dcnr.SimulateBackbone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDigest(t, func(b *bytes.Buffer) error { return tickets.WriteAll(b, res.Notices) })
	if want := "183f9a64b6ec001d047a35403e25145ce80293942994cf6995f72ad41991bc79"; got != want {
		t.Errorf("tickets.txt sha256 = %s, want %s", got, want)
	}
}

// TestHealthReportGoldenBytes pins seed 7's SLO report exactly as
// `dcsim -seed 7 -health-out health.json` writes it: the streaming health
// engine follows the full-range intra-DC run at scale 1. The fleet-wide
// sums run over the device types by name, so every run writes these bytes.
func TestHealthReportGoldenBytes(t *testing.T) {
	eng, err := dcnr.NewHealthEngine(dcnr.HealthTargetsForScale(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{Seed: 7, Scale: 1, Observe: dcnr.Observe{Health: eng}}); err != nil {
		t.Fatal(err)
	}
	got := goldenDigest(t, func(b *bytes.Buffer) error { return eng.WriteJSON(b) })
	if want := "3c4c9e276eaf15d04943c5a674806539f2c891cb705f1afa7e8cb6a6296d408a"; got != want {
		t.Errorf("health.json sha256 = %s, want %s", got, want)
	}
}
