package tickets

import (
	"math"
	"strings"
	"testing"

	"dcnr/internal/backbone"
)

// FuzzParse checks that Parse never panics and that accepted notices
// re-format and re-parse to the same notice (idempotent round trip).
func FuzzParse(f *testing.F) {
	f.Add(sampleFuzzNotice().Format())
	f.Add("Ticket-ID: X\nVendor: v\nLink: l\nEdge: e\nEvent: REPAIR_START\nAt-Hours: 1\n")
	f.Add("")
	f.Add("garbage\n\n::\n")
	f.Add("Ticket-ID: a\nAt-Hours: -1\n")
	f.Add(strings.Repeat("Vendor: v\n", 100))
	f.Fuzz(func(t *testing.T, text string) {
		n, err := Parse(text)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted notices round-trip.
		n2, err := Parse(n.Format())
		if err != nil {
			t.Fatalf("re-parse of formatted notice failed: %v\n%s", err, n.Format())
		}
		if n2.TicketID != n.TicketID || n2.Event != n.Event || n2.Continent != n.Continent {
			t.Fatalf("round trip changed notice: %+v vs %+v", n, n2)
		}
	})
}

// FuzzParseMatchesReference checks Parse against parseRef, the original
// bufio.Scanner parser: on every input both make the same accept/reject
// decision, and accepted notices are identical field for field, floats
// compared bit for bit. The 64 KiB line limit is pinned by
// TestParseLongLineBoundary instead: seeds that size stall the fuzzer in
// minimization.
func FuzzParseMatchesReference(f *testing.F) {
	valid := sampleFuzzNotice().Format()
	f.Add(valid)
	f.Add(strings.ReplaceAll(valid, "\n", "\r\n"))
	f.Add(strings.TrimSuffix(valid, "\n"))
	f.Add(strings.Replace(valid, "At-Hours: 10.0000", "At-Hours: NaN", 1))
	f.Add(strings.Replace(valid, "Edge:", "Edge :\u00a0", 1))
	f.Add("\r\n\r\n")
	f.Fuzz(func(t *testing.T, text string) {
		got, gotErr := Parse(text)
		want, wantErr := parseRef(text)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decision differs on %q:\nParse:    %v\nparseRef: %v", text, gotErr, wantErr)
		}
		if gotErr == nil && !sameNotice(got, want) {
			t.Fatalf("notice differs on %q:\nParse:    %+v\nparseRef: %+v", text, got, want)
		}
	})
}

// FuzzFormatMatchesReference checks Format against formatRef, the
// fmt-based original, over raw float64 bits and arbitrary header
// strings: every float class (NaN payloads, ±Inf, -0, subnormals),
// x.xxxx5 ties, the values around 1 and 1e14 where appendFixed4 switches
// path, and the rounding carry into a new integer digit.
func FuzzFormatMatchesReference(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		0.99995, 0.999949999, 1, math.Nextafter(1, 0), -1.00005,
		1.03125, 2.5e-5, 12.34565, 1024.00005, 9.99995, 9999.99996, -99.99995,
		1e14, math.Nextafter(1e14, 0), 99999999999999.99, 1e15, 1e21, math.MaxFloat64,
	} {
		f.Add(math.Float64bits(x), math.Float64bits(-x), "vendor03", "link0042", true)
	}
	f.Add(uint64(0x7ff8000000000001), uint64(0xfff0000000000000), "", " :\n", false)
	f.Fuzz(func(t *testing.T, atBits, estBits uint64, vendor, link string, start bool) {
		n := sampleFuzzNotice()
		n.AtHours = math.Float64frombits(atBits)
		n.EstimatedHours = math.Float64frombits(estBits)
		n.Vendor, n.Link = vendor, link
		if !start {
			n.Event = RepairComplete
		}
		if got, want := n.Format(), formatRef(n); got != want {
			t.Fatalf("Format differs for AtHours %v (%#x), EstimatedHours %v (%#x):\ngot  %q\nwant %q",
				n.AtHours, atBits, n.EstimatedHours, estBits, got, want)
		}
	})
}

// sameNotice reports whether a and b are identical, floats compared by
// their bits (so NaN equals NaN and -0 differs from 0).
func sameNotice(a, b Notice) bool {
	return a.TicketID == b.TicketID && a.Vendor == b.Vendor && a.Link == b.Link &&
		a.Circuit == b.Circuit && a.Edge == b.Edge && a.Continent == b.Continent &&
		a.Event == b.Event && a.Maintenance == b.Maintenance &&
		math.Float64bits(a.AtHours) == math.Float64bits(b.AtHours) &&
		math.Float64bits(a.EstimatedHours) == math.Float64bits(b.EstimatedHours)
}

func sampleFuzzNotice() Notice {
	return Notice{
		TicketID: "TKT-000001", Vendor: "vendor01", Link: "link0001",
		Circuit: "CKT-00001-01", Edge: "edge001", Continent: backbone.Asia,
		Event: RepairStart, AtHours: 10, EstimatedHours: 2,
	}
}
