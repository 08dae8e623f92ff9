package dcnr_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dcnr"
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
	tl := dcnr.NewTimeline(24)
	cfg := dcnr.IntraConfig{Seed: 7, FromYear: 2012, ToYear: 2015}
	cfg.Observe.Journal = jnl
	cfg.Observe.Timeline = tl
	res, err := dcnr.SimulateIntraDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	for _, c := range []struct {
		name, want string
		write      func(*bytes.Buffer) error
	}{
		{"sevs.json", "32193582f3d2012c1dc7b6882a9e438ce01fad78ea6ad7a57aa0d0a1ac70d8b1", func(b *bytes.Buffer) error { return res.Store.WriteJSON(b) }},
		{"journal", "02a22a6ecc967678ee6da5551fb786e5251f22cb650ab9f8432635a525f1f8bc", func(b *bytes.Buffer) error { return jnl.Index().WriteJSONL(b) }},
		{"timeline", "1bbef8ef9425983a3a28886b9d8f57dfbb9fb055eba919dfba7edc64e8912a01", func(b *bytes.Buffer) error { return tl.WriteJSONL(b) }},
	} {
		if got := digest(c.write); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
