package tickets

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"dcnr/internal/backbone"
)

// formatRef and parseRef are the original fmt/bufio.Scanner codec, kept
// verbatim as the naive reference the append-based Format and the
// Cut-based Parse are checked against (differential fuzz, quick-check,
// long-line boundary table).

func formatRef(n Notice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ticket-ID: %s\n", n.TicketID)
	fmt.Fprintf(&b, "Vendor: %s\n", n.Vendor)
	fmt.Fprintf(&b, "Link: %s\n", n.Link)
	fmt.Fprintf(&b, "Circuit: %s\n", n.Circuit)
	fmt.Fprintf(&b, "Edge: %s\n", n.Edge)
	fmt.Fprintf(&b, "Continent: %s\n", n.Continent)
	fmt.Fprintf(&b, "Event: %s\n", n.Event)
	fmt.Fprintf(&b, "At-Hours: %.4f\n", n.AtHours)
	if n.Event == RepairStart {
		fmt.Fprintf(&b, "Estimated-Hours: %.4f\n", n.EstimatedHours)
	}
	fmt.Fprintf(&b, "Maintenance: %t\n", n.Maintenance)
	return b.String()
}

func parseRef(text string) (Notice, error) {
	n := Notice{AtHours: -1}
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return Notice{}, fmt.Errorf("tickets: malformed line %q", line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		seen[key] = true
		switch key {
		case "Ticket-ID":
			n.TicketID = value
		case "Vendor":
			n.Vendor = value
		case "Link":
			n.Link = value
		case "Circuit":
			n.Circuit = value
		case "Edge":
			n.Edge = value
		case "Continent":
			c, ok := continentByName[value]
			if !ok {
				return Notice{}, fmt.Errorf("tickets: unknown continent %q", value)
			}
			n.Continent = c
		case "Event":
			switch EventType(value) {
			case RepairStart, RepairComplete:
				n.Event = EventType(value)
			default:
				return Notice{}, fmt.Errorf("tickets: unknown event %q", value)
			}
		case "At-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil || f < 0 {
				return Notice{}, fmt.Errorf("tickets: bad At-Hours %q", value)
			}
			n.AtHours = f
		case "Estimated-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Estimated-Hours %q", value)
			}
			n.EstimatedHours = f
		case "Maintenance":
			b, err := strconv.ParseBool(value)
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Maintenance %q", value)
			}
			n.Maintenance = b
		}
	}
	if err := sc.Err(); err != nil {
		return Notice{}, fmt.Errorf("tickets: reading notice: %w", err)
	}
	for _, req := range []string{"Ticket-ID", "Vendor", "Link", "Edge", "Event", "At-Hours"} {
		if !seen[req] {
			return Notice{}, fmt.Errorf("tickets: missing required header %s", req)
		}
	}
	return n, nil
}

// writeAllRef is WriteAll as it was written over formatRef: one joined
// notice-plus-separator string per notice.
func writeAllRef(w io.Writer, notices []Notice) error {
	for _, n := range notices {
		if _, err := io.WriteString(w, formatRef(n)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func TestFormatMatchesReference(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, 123.4567, 0.00005, 0.00015, 2.5e-5,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
		1e21, 1.5e21, -1e21, 1e300, math.MaxFloat64, -math.MaxFloat64,
	}
	texts := []string{"", "vendor03", "vendor with spaces", "  padded  ", "a:b", "tab\tin", "ünïcode"}
	continents := append([]backbone.Continent{-1, 99}, backbone.Continents...)
	events := []EventType{RepairStart, RepairComplete, "", "REPAIR_MAYBE"}
	check := func(n Notice) {
		t.Helper()
		if got, want := n.Format(), formatRef(n); got != want {
			t.Fatalf("Format differs for %+v:\ngot  %q\nwant %q", n, got, want)
		}
	}
	for i, at := range floats {
		for j, ev := range events {
			n := sampleNotice()
			n.Event = ev
			n.AtHours = at
			n.EstimatedHours = floats[(i+j+1)%len(floats)]
			n.Maintenance = j%2 == 0
			n.Vendor = texts[(i+j)%len(texts)]
			n.Circuit = texts[i%len(texts)]
			n.Continent = continents[(i+j)%len(continents)]
			check(n)
		}
	}
	f := func(n Notice, start bool, bits uint64) bool {
		if start {
			n.Event = RepairStart
		}
		if bits%4 == 0 {
			n.AtHours = math.Float64frombits(bits) // every class: NaN, Inf, subnormal, huge
		}
		return n.Format() == formatRef(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendFixed4MatchesReference sweeps appendFixed4's fast path
// against %.4f: every integer-digit count it takes (1 through 14), exact
// binary ties at the fifth decimal (j/32 fractions), values one ulp either
// side of a rounding boundary, and the carries at 10^k.
func TestAppendFixed4MatchesReference(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := string(appendFixed4(nil, x)), fmt.Sprintf("%.4f", x); got != want {
			t.Fatalf("appendFixed4(%v) = %q, want %q", x, got, want)
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for k, p := 1, 1.0; k <= 15; k, p = k+1, p*10 {
		for j := 0; j < 32; j++ {
			for _, x := range []float64{p + float64(j)/32, p*9 + float64(j)/32, p + float64(j)*1e-5} {
				check(x)
				check(-x)
				check(math.Nextafter(x, 0))
				check(math.Nextafter(x, math.Inf(1)))
			}
		}
		for i := 0; i < 2000; i++ {
			x := p * (1 + 9*r.Float64())
			check(x)
			check(-x)
			// The nearest x.xxxx5 boundary and its neighbours.
			b := (math.Floor(x*1e4) + 0.5) / 1e4
			check(b)
			check(math.Nextafter(b, 0))
			check(math.Nextafter(b, math.Inf(1)))
		}
		top := p * 10
		for _, d := range []float64{0.00004, 0.00005, 0.00006, 0.0001} {
			check(top - d)
			check(-(top - d))
		}
	}
}

// TestParseLongLineBoundary pins the bufio.Scanner line limit Parse keeps:
// a line whose raw bytes before '\n', any '\r' included, reach
// bufio.MaxScanTokenSize is rejected; one byte shorter is accepted.
func TestParseLongLineBoundary(t *testing.T) {
	valid := sampleNotice().Format()
	head, tail, _ := strings.Cut(valid, "Edge:")
	tail = "Edge:" + tail
	// noise returns an ignored header line of exactly size raw bytes,
	// the last of them a '\r' when cr is set.
	noise := func(size int, cr bool) string {
		pad := size - len("X-Noise: ")
		if cr {
			return "X-Noise: " + strings.Repeat("n", pad-1) + "\r"
		}
		return "X-Noise: " + strings.Repeat("n", pad)
	}
	for _, size := range []int{bufio.MaxScanTokenSize - 1, bufio.MaxScanTokenSize} {
		for _, tc := range []struct {
			name string
			text func(line string) string
			cr   bool
		}{
			{"last/LF", func(l string) string { return valid + l + "\n" }, false},
			{"last/CRLF", func(l string) string { return valid + l + "\n" }, true},
			{"last/unterminated", func(l string) string { return valid + l }, false},
			{"last/unterminated-CR", func(l string) string { return valid + l }, true},
			{"middle/LF", func(l string) string { return head + l + "\n" + tail }, false},
			{"middle/CRLF", func(l string) string { return head + l + "\n" + tail }, true},
		} {
			t.Run(fmt.Sprintf("%d/%s", size, tc.name), func(t *testing.T) {
				text := tc.text(noise(size, tc.cr))
				got, err := Parse(text)
				want, refErr := parseRef(text)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("Parse err %v, parseRef err %v", err, refErr)
				}
				tooLong := size >= bufio.MaxScanTokenSize
				if tooLong != errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("size %d: err = %v, want too-long rejection %v", size, err, tooLong)
				}
				if err == nil && !sameNotice(got, want) {
					t.Fatalf("notice differs: %+v vs %+v", got, want)
				}
			})
		}
	}
}

// TestWriteAllMatchesReference checks the archive WriteAll emits for a
// default backbone's ticket stream (dcsim's tickets.txt) byte for byte
// against the formatRef writer.
func TestWriteAllMatchesReference(t *testing.T) {
	cfg := backbone.DefaultConfig()
	topo, err := backbone.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	notices := Generate(topo, downs)
	var got, want bytes.Buffer
	if err := WriteAll(&got, notices); err != nil {
		t.Fatal(err)
	}
	if err := writeAllRef(&want, notices); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteAll output (%d bytes) differs from the reference (%d bytes)", got.Len(), want.Len())
	}
}

// generateRef is Generate as it was first written: notices built in
// interval order with Sprintf IDs, then stably sorted by event time.
func generateRef(topo *backbone.Topology, downs []backbone.LinkDown) []Notice {
	circuits := make(map[string]string, len(topo.Links))
	for _, l := range topo.Links {
		circuits[l.Name] = l.CircuitID
	}
	var notices []Notice
	for i, d := range downs {
		base := Notice{
			TicketID: fmt.Sprintf("TKT-%06d", i+1), Vendor: d.Vendor, Link: d.Link,
			Circuit: circuits[d.Link], Edge: d.Edge, Continent: d.Continent, Maintenance: !d.Cut,
		}
		start, complete := base, base
		start.Event, start.AtHours, start.EstimatedHours = RepairStart, d.Start, 0.8*d.Duration()
		complete.Event, complete.AtHours = RepairComplete, d.End
		notices = append(notices, start, complete)
	}
	sort.SliceStable(notices, func(i, j int) bool { return notices[i].AtHours < notices[j].AtHours })
	return notices
}

// goldenBackbones simulates the backbones the golden tests pin (seeds 1
// and 2 of the sweep golden, seed 7 of the ticket golden) plus one at
// scale 2, each with its seed.
func goldenBackbones(t *testing.T, visit func(name string, topo *backbone.Topology, cfg backbone.Config, downs []backbone.LinkDown)) {
	t.Helper()
	for _, c := range []struct {
		seed  uint64
		scale int
	}{{1, 1}, {2, 1}, {7, 1}, {1, 2}} {
		cfg := backbone.DefaultConfig()
		cfg.Seed = c.seed
		cfg.Edges *= c.scale
		topo, err := backbone.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		downs, err := topo.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		visit(fmt.Sprintf("seed%d/x%d", c.seed, c.scale), topo, cfg, downs)
	}
}

// TestGenerateMatchesReference checks Generate's key sort and shared-ID
// construction against generateRef on the golden backbones, notice for
// notice.
func TestGenerateMatchesReference(t *testing.T) {
	goldenBackbones(t, func(name string, topo *backbone.Topology, _ backbone.Config, downs []backbone.LinkDown) {
		got, want := Generate(topo, downs), generateRef(topo, downs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d notices, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if !sameNotice(got[i], want[i]) {
				t.Fatalf("%s: notice %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	})
}

// TestSortKeysUniqueOnGoldenBackbones pins what lets the link-downtime
// and collector sorts order index pairs instead of records: on every
// golden backbone, (Start, Link) is unique among the simulated downtimes
// and (Start, TicketID) among the collected ones, so each comparator is a
// total order on the data, and both orders equal a plain sort.Slice by
// the same keys.
func TestSortKeysUniqueOnGoldenBackbones(t *testing.T) {
	goldenBackbones(t, func(name string, topo *backbone.Topology, cfg backbone.Config, downs []backbone.LinkDown) {
		type linkKey struct {
			start float64
			link  string
		}
		seen := make(map[linkKey]bool, len(downs))
		for _, d := range downs {
			k := linkKey{d.Start, d.Link}
			if seen[k] {
				t.Fatalf("%s: two downtimes of %s start at %v", name, d.Link, d.Start)
			}
			seen[k] = true
		}
		ref := slices.Clone(downs)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].Start != ref[j].Start {
				return ref[i].Start < ref[j].Start
			}
			return ref[i].Link < ref[j].Link
		})
		if !slices.Equal(downs, ref) {
			t.Fatalf("%s: Simulate's order differs from sort.Slice by (Start, Link)", name)
		}

		coll := NewCollector()
		coll.WindowHours = cfg.WindowHours()
		for _, n := range Generate(topo, downs) {
			ingestText(t, coll, n.Format())
		}
		dts := coll.Downtimes()
		type ticketKey struct {
			start float64
			id    string
		}
		seenTicket := make(map[ticketKey]bool, len(dts))
		for _, d := range dts {
			k := ticketKey{d.Start, d.TicketID}
			if seenTicket[k] {
				t.Fatalf("%s: ticket %s collected twice at %v", name, d.TicketID, d.Start)
			}
			seenTicket[k] = true
		}
		refDts := slices.Clone(dts)
		sort.Slice(refDts, func(i, j int) bool {
			if refDts[i].Start != refDts[j].Start {
				return refDts[i].Start < refDts[j].Start
			}
			return refDts[i].TicketID < refDts[j].TicketID
		})
		if !slices.Equal(dts, refDts) {
			t.Fatalf("%s: Downtimes' order differs from sort.Slice by (Start, TicketID)", name)
		}
	})
}

// TestTicketIDs checks the shared-backing IDs against %06d, across the
// width change past a million.
func TestTicketIDs(t *testing.T) {
	ids := ticketIDs(1_000_001)
	for _, i := range []int{0, 8, 9, 99, 999, 9999, 99999, 999998, 999999, 1_000_000} {
		if want := fmt.Sprintf("TKT-%06d", i+1); ids[i] != want {
			t.Errorf("ticketIDs[%d] = %q, want %q", i, ids[i], want)
		}
	}
}
