package tickets

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
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
