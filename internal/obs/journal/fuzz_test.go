package journal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// recordNames decodes the dev, class and sev names of every journal
// record (a line with an "id") in a JSONL stream, as ReadJSONL reads them.
func recordNames(t *testing.T, stream []byte) [][3]string {
	t.Helper()
	var out [][3]string
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if len(bytes.TrimSuffix(line, []byte("\r"))) == 0 {
			continue
		}
		var jr struct {
			ID    uint64  `json:"id"`
			Dev   string  `json:"dev"`
			Class *string `json:"class"`
			Sev   *string `json:"sev"`
		}
		if err := json.Unmarshal(line, &jr); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if jr.ID == 0 {
			continue
		}
		n := [3]string{jr.Dev, "-", "-"}
		if jr.Class != nil {
			n[1] = "=" + *jr.Class
		}
		if jr.Sev != nil {
			n[2] = "=" + *jr.Sev
		}
		out = append(out, n)
	}
	return out
}

// FuzzReadJournal checks ReadJSONL, the facade's ReadJournal, on outside
// bytes. An accepted stream, written back with WriteJSONL, names every
// record's dev, class and sev as the input did, and reads again into an
// index that writes the same bytes. The checked-in corpus
// (testdata/fuzz/FuzzReadJournal) holds study-shaped records, a campaign
// header line, names that need JSON escaping, empty names, signed and
// out-of-range times, and 129 distinct class names, one past what a class
// ordinal holds (TestReadJSONLNameTableLimits covers every table). Inputs
// over 8 KiB are skipped: longer ones stall the fuzzer in minimization.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return
		}
		x, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := x.WriteJSONL(&first); err != nil {
			t.Fatal(err)
		}
		in, out := recordNames(t, data), recordNames(t, first.Bytes())
		if len(in) != len(out) {
			t.Fatalf("%d records read, %d written:\n%s", len(in), len(out), first.Bytes())
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("record %d: read names %q, wrote %q", i+1, in[i], out[i])
			}
		}
		y, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written stream rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := y.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("written stream does not read back to itself:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
