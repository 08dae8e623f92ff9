// Package tickets implements the vendor repair-ticket pipeline of §4.3.2.
//
// When a fiber vendor starts repairing a link, it notifies the operator
// with a structured email: the logical link ID, the affected circuit, the
// physical location, the start time, and the estimated duration. A matching
// confirmation arrives when the repair completes. These notices are parsed
// automatically and stored for reliability analysis.
//
// This package defines the notice format (a simple RFC-822-style
// header block), generates notices from simulated link downtime, parses
// them back, and pairs start/complete notices into downtime intervals —
// the dataset §6 analyzes. The simulation (package sim) sends every notice
// through Format, Parse and Collector.Ingest in memory, so the analysis
// reads what a parser recovered.
package tickets

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"dcnr/internal/backbone"
)

// EventType distinguishes repair-start from repair-complete notices.
type EventType string

const (
	// RepairStart announces that a link is down and repair has begun.
	RepairStart EventType = "REPAIR_START"
	// RepairComplete confirms the repair finished and the link is up.
	RepairComplete EventType = "REPAIR_COMPLETE"
)

// Notice is one parsed vendor notification.
type Notice struct {
	// TicketID pairs the start and complete notices of one repair.
	TicketID string
	// Vendor, Link, Circuit, Edge identify the repaired elements.
	Vendor, Link, Circuit, Edge string
	// Continent is the physical location of the affected fiber.
	Continent backbone.Continent
	// Event is the notice type.
	Event EventType
	// AtHours is the event time in hours since the observation window
	// start.
	AtHours float64
	// EstimatedHours is the vendor's repair-duration estimate (start
	// notices only; vendors habitually underestimate).
	EstimatedHours float64
	// Maintenance marks planned maintenance rather than an unplanned cut.
	Maintenance bool
}

// Format renders the notice in the structured-email form vendors send.
// The text is appended into a stack buffer, so for any notice up to
// formatStackSize bytes the returned string is the only allocation.
func (n Notice) Format() string {
	var buf [formatStackSize]byte
	return string(n.appendTo(buf[:0]))
}

// formatStackSize bounds Format's stack buffer: generated notices run to
// about 200 bytes, and a longer one only costs a second allocation.
const formatStackSize = 512

// appendTo appends the notice's structured-email form to b. The floats
// are byte-identical to %.4f (NaN, ±Inf and -0 included; see
// appendFixed4); the bool is %t's true/false.
func (n Notice) appendTo(b []byte) []byte {
	b = appendHeader(b, "Ticket-ID: ", n.TicketID)
	b = appendHeader(b, "Vendor: ", n.Vendor)
	b = appendHeader(b, "Link: ", n.Link)
	b = appendHeader(b, "Circuit: ", n.Circuit)
	b = appendHeader(b, "Edge: ", n.Edge)
	b = appendHeader(b, "Continent: ", n.Continent.String())
	b = appendHeader(b, "Event: ", string(n.Event))
	b = append(b, "At-Hours: "...)
	b = append(appendFixed4(b, n.AtHours), '\n')
	if n.Event == RepairStart {
		b = append(b, "Estimated-Hours: "...)
		b = append(appendFixed4(b, n.EstimatedHours), '\n')
	}
	b = append(b, "Maintenance: "...)
	return append(strconv.AppendBool(b, n.Maintenance), '\n')
}

// appendFixed4 appends x as %.4f would. strconv's 'f' format at a fixed
// precision always takes its slow multi-precision path; its 'e' format
// takes the fast Ryū path for up to 18 significant digits. For
// 1 <= |x| < 1e14 the integer part has k <= 14 digits, so the 'e' digits
// at precision k+3 (k+4 significant digits) are exactly the digits %.4f
// prints, rounded the same way, and only the decimal point moves. When
// rounding carries into a new digit (9999.99996 → 1.0000000e+04) the
// value is exactly 10^k, one more zero than the 'e' digits hold.
// Everything else — non-finite values, |x| < 1 (leading fraction zeros
// would cost significant digits), |x| >= 1e14 — keeps the 'f' path.
func appendFixed4(b []byte, x float64) []byte {
	ax := math.Abs(x)
	if !(ax >= 1 && ax < 1e14) { // NaN fails both comparisons
		return strconv.AppendFloat(b, x, 'f', 4, 64)
	}
	k := 1
	for p := 10.0; ax >= p; p *= 10 {
		k++
	}
	var tmp [32]byte
	e := strconv.AppendFloat(tmp[:0], ax, 'e', k+3, 64) // d.ddd…e+XX
	if x < 0 {
		b = append(b, '-')
	}
	if exp := int(e[len(e)-2]-'0')*10 + int(e[len(e)-1]-'0'); exp != k-1 {
		// Carried: the value is 10^k.
		b = append(b, '1')
		for i := 0; i < k; i++ {
			b = append(b, '0')
		}
		return append(b, ".0000"...)
	}
	b = append(b, e[0])
	b = append(b, e[2:k+1]...)
	b = append(b, '.')
	return append(b, e[k+1:k+5]...)
}

func appendHeader(b []byte, key, value string) []byte {
	b = append(b, key...)
	b = append(b, value...)
	return append(b, '\n')
}

// continentByName inverts backbone.Continent.String for parsing.
var continentByName = func() map[string]backbone.Continent {
	m := make(map[string]backbone.Continent)
	for _, c := range backbone.Continents {
		m[c.String()] = c
	}
	return m
}()

// Bits of Parse's seen mask, one per required header, in the order
// requiredHeaders names them.
const (
	seenTicketID uint8 = 1 << iota
	seenVendor
	seenLink
	seenEdge
	seenEvent
	seenAtHours
)

var requiredHeaders = [...]string{"Ticket-ID", "Vendor", "Link", "Edge", "Event", "At-Hours"}

// errLineTooLong is bufio.Scanner's line limit, which Parse applies too: a
// line whose raw bytes before '\n' (any '\r' included) reach
// bufio.MaxScanTokenSize is rejected.
var errLineTooLong = fmt.Errorf("tickets: reading notice: %w", bufio.ErrTooLong)

// Parse decodes one notice from its structured-email form. Unknown header
// keys are ignored (vendors add noise); missing required keys are errors.
// Header values are substrings of text; a well-formed notice parses
// without allocating.
//
//hot:noalloc
func Parse(text string) (Notice, error) {
	n := Notice{AtHours: -1}
	var seen uint8
	for rest := text; rest != ""; {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		if len(raw) >= bufio.MaxScanTokenSize {
			return Notice{}, errLineTooLong
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return Notice{}, fmt.Errorf("tickets: malformed line %q", line) //lint:allow hotalloc error path
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "Ticket-ID":
			n.TicketID = value
			seen |= seenTicketID
		case "Vendor":
			n.Vendor = value
			seen |= seenVendor
		case "Link":
			n.Link = value
			seen |= seenLink
		case "Circuit":
			n.Circuit = value
		case "Edge":
			n.Edge = value
			seen |= seenEdge
		case "Continent":
			c, ok := continentByName[value]
			if !ok {
				return Notice{}, fmt.Errorf("tickets: unknown continent %q", value) //lint:allow hotalloc error path
			}
			n.Continent = c
		case "Event":
			switch EventType(value) {
			case RepairStart, RepairComplete:
				n.Event = EventType(value)
			default:
				return Notice{}, fmt.Errorf("tickets: unknown event %q", value) //lint:allow hotalloc error path
			}
			seen |= seenEvent
		case "At-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil || f < 0 {
				return Notice{}, fmt.Errorf("tickets: bad At-Hours %q", value) //lint:allow hotalloc error path
			}
			n.AtHours = f
			seen |= seenAtHours
		case "Estimated-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Estimated-Hours %q", value) //lint:allow hotalloc error path
			}
			n.EstimatedHours = f
		case "Maintenance":
			b, err := strconv.ParseBool(value) //lint:allow hotalloc inlined ParseBool allocates only its error
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Maintenance %q", value) //lint:allow hotalloc error path
			}
			n.Maintenance = b
		}
	}
	for i, name := range requiredHeaders {
		if seen&(1<<i) == 0 {
			return Notice{}, fmt.Errorf("tickets: missing required header %s", name) //lint:allow hotalloc error path
		}
	}
	return n, nil
}

// Generate produces the notice stream for a simulated set of link downtime
// intervals: one start and one complete notice per interval, ordered by
// event time (starts and completes interleaved, as they arrive in the
// field). Events at equal times keep their generation order — interval by
// interval, start before complete — exactly as a stable sort by time.
func Generate(topo *backbone.Topology, downs []backbone.LinkDown) []Notice {
	circuits := make(map[string]string, len(topo.Links))
	for _, l := range topo.Links {
		circuits[l.Name] = l.CircuitID
	}
	// Order (time, generation index) pairs, not 128-byte notices: event
	// 2i is interval i's start, 2i+1 its complete. The index breaks ties,
	// so the order is total and an unstable sort yields the stable order.
	order := make([]eventKey, 0, 2*len(downs))
	for i, d := range downs {
		order = append(order, eventKey{d.Start, 2 * i}, eventKey{d.End, 2*i + 1})
	}
	slices.SortFunc(order, func(a, b eventKey) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.idx, b.idx))
	})
	ids := ticketIDs(len(downs))
	notices := make([]Notice, len(order))
	for k, ev := range order {
		i := ev.idx / 2
		d := &downs[i]
		n := &notices[k]
		*n = Notice{
			TicketID:    ids[i],
			Vendor:      d.Vendor,
			Link:        d.Link,
			Circuit:     circuits[d.Link],
			Edge:        d.Edge,
			Continent:   d.Continent,
			Maintenance: !d.Cut,
		}
		if ev.idx%2 == 0 {
			n.Event = RepairStart
			n.AtHours = d.Start
			// Vendors estimate ~80% of the actual duration.
			n.EstimatedHours = 0.8 * d.Duration()
		} else {
			n.Event = RepairComplete
			n.AtHours = d.End
		}
	}
	return notices
}

// eventKey is one record to be ordered: its time and its index.
type eventKey struct {
	at  float64
	idx int
}

// ticketIDs returns the IDs TKT-000001 … TKT-n (%06d, wider past a
// million) as substrings of one backing string: one allocation for all.
func ticketIDs(n int) []string {
	buf := make([]byte, 0, n*len("TKT-000000"))
	ends := make([]int, n)
	for i := range ends {
		buf = append(buf, "TKT-"...)
		v := i + 1
		for p := 100000; p > 1 && v < p; p /= 10 {
			buf = append(buf, '0')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	ids := make([]string, n)
	start := 0
	for i, end := range ends {
		ids[i] = all[start:end]
		start = end
	}
	return ids
}

// Downtime is a reconstructed link downtime interval: the collector's
// output record.
type Downtime struct {
	TicketID           string
	Vendor, Link, Edge string
	Continent          backbone.Continent
	Start, End         float64
	Maintenance        bool
}

// Duration returns the interval length in hours.
func (d Downtime) Duration() float64 { return d.End - d.Start }

// Collector pairs start/complete notices into Downtime records, the
// automated parsing-and-database step of §4.3.2.
type Collector struct {
	open      map[string]Notice
	completed []Downtime
	// names interns the vendor, link and edge names of completed records.
	// Parsed values are substrings of their notice's text; a record holds
	// copies, so the text is not kept alive for the analysis' lifetime.
	names map[string]string
	// WindowHours clips repairs still open at the end of the observation
	// window; zero means no clipping.
	WindowHours float64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{open: make(map[string]Notice), names: make(map[string]string)}
}

func (c *Collector) intern(name string) string {
	if v, ok := c.names[name]; ok {
		return v
	}
	v := strings.Clone(name)
	c.names[v] = v
	return v
}

// Ingest consumes one notice. Completes without a matching start, and
// duplicate starts, are errors — the monitoring systems §4.3.2 describes
// check exactly this kind of consistency.
func (c *Collector) Ingest(n Notice) error {
	switch n.Event {
	case RepairStart:
		if _, dup := c.open[n.TicketID]; dup {
			return fmt.Errorf("tickets: duplicate start for %s", n.TicketID)
		}
		c.open[n.TicketID] = n
	case RepairComplete:
		start, ok := c.open[n.TicketID]
		if !ok {
			return fmt.Errorf("tickets: complete without start for %s", n.TicketID)
		}
		if n.AtHours < start.AtHours {
			return fmt.Errorf("tickets: %s completes at %v before start %v", n.TicketID, n.AtHours, start.AtHours)
		}
		delete(c.open, n.TicketID)
		c.completed = append(c.completed, Downtime{
			TicketID:    strings.Clone(n.TicketID),
			Vendor:      c.intern(start.Vendor),
			Link:        c.intern(start.Link),
			Edge:        c.intern(start.Edge),
			Continent:   start.Continent,
			Start:       start.AtHours,
			End:         n.AtHours,
			Maintenance: start.Maintenance,
		})
	default:
		return fmt.Errorf("tickets: unknown event %q", n.Event)
	}
	return nil
}

// Open reports how many repairs are in progress (started, not completed).
func (c *Collector) Open() int { return len(c.open) }

// Downtimes returns the completed intervals sorted by start time, ties by
// ticket ID. Repairs still open are clipped to WindowHours when it is
// set, mirroring the study's fixed observation window.
func (c *Collector) Downtimes() []Downtime {
	src := c.completed
	if c.WindowHours > 0 && len(c.open) > 0 {
		src = slices.Clone(src)
		for _, start := range c.open {
			src = append(src, Downtime{
				TicketID:    start.TicketID,
				Vendor:      start.Vendor,
				Link:        start.Link,
				Edge:        start.Edge,
				Continent:   start.Continent,
				Start:       start.AtHours,
				End:         c.WindowHours,
				Maintenance: start.Maintenance,
			})
		}
	}
	// Order (start, index) pairs and copy each record once, rather than
	// swapping 96-byte records. The index is the last tie-break, so the
	// order is total: where (Start, TicketID) is unique, as in every
	// generated stream, it is the order a sort by (Start, TicketID) gives.
	order := make([]eventKey, len(src))
	for i := range src {
		order[i] = eventKey{src[i].Start, i}
	}
	slices.SortFunc(order, func(a, b eventKey) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Or(strings.Compare(src[a.idx].TicketID, src[b.idx].TicketID), cmp.Compare(a.idx, b.idx))
	})
	out := make([]Downtime, len(src))
	for k, o := range order {
		out[k] = src[o.idx]
	}
	return out
}

// WriteAll formats notices to w separated by blank lines — the mbox-like
// archive dcsim writes as tickets.txt. One buffer is reused for every
// notice, and each notice and its separator go out in one Write.
func WriteAll(w io.Writer, notices []Notice) error {
	var buf []byte
	for _, n := range notices {
		buf = append(n.appendTo(buf[:0]), '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
