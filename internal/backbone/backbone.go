// Package backbone models the inter-data-center network of §3.2 and §6:
// edge nodes spread across continents, connected to the WAN backbone by at
// least three fiber links, each link operated by a fiber vendor of varying
// reliability.
//
// Two failure processes run against this topology:
//
//   - Independent link failures: a single optical circuit fails (vendor
//     maintenance, equipment fault) and the vendor repairs it. Rates and
//     repair times are vendor-specific — §6.2's observation that vendors
//     span orders of magnitude in reliability.
//   - Edge-severing events: a fiber cut or correlated maintenance takes
//     down all of an edge's links at once (the paper's "combination of
//     planned fiber maintenances or unplanned fiber cuts sever its
//     backbone and Internet connectivity"). These dominate measured edge
//     downtime because independent failures of three-plus links rarely
//     overlap.
//
// The simulation emits per-link downtime intervals — the raw material the
// vendor-ticket pipeline (internal/tickets) formats and parses back and the
// analysis engine (internal/core) models.
package backbone

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"dcnr/internal/des"
	"dcnr/internal/observe"
	"dcnr/internal/simrand"
)

// Continent locates an edge geographically (Table 4).
type Continent int

const (
	// NorthAmerica holds the plurality of edges.
	NorthAmerica Continent = iota
	// Europe is a close second.
	Europe
	// Asia follows.
	Asia
	// SouthAmerica has the shortest time between edge failures.
	SouthAmerica
	// Africa has few edges, the longest uptimes, and the slowest repairs
	// (submarine links).
	Africa
	// Australia recovers fastest (big-city locations).
	Australia

	numContinents = int(Australia) + 1
)

// Continents lists all continents in Table 4 order.
var Continents = []Continent{NorthAmerica, Europe, Asia, SouthAmerica, Africa, Australia}

var continentNames = [numContinents]string{
	"North America", "Europe", "Asia", "South America", "Africa", "Australia",
}

// String returns the continent's display name.
func (c Continent) String() string {
	if c < 0 || int(c) >= numContinents {
		return fmt.Sprintf("Continent(%d)", int(c))
	}
	return continentNames[c]
}

// continentCalibration carries Table 4's targets: the share of edges on
// each continent and the mean time between edge failures / to recovery.
type continentCalibration struct {
	share float64 // fraction of edges
	mtbf  float64 // hours
	mttr  float64 // hours
}

var continentCal = map[Continent]continentCalibration{
	NorthAmerica: {share: 0.37, mtbf: 1848, mttr: 17},
	Europe:       {share: 0.33, mtbf: 2029, mttr: 19},
	Asia:         {share: 0.14, mtbf: 2352, mttr: 11},
	SouthAmerica: {share: 0.10, mtbf: 1579, mttr: 9},
	Africa:       {share: 0.04, mtbf: 5400, mttr: 22},
	Australia:    {share: 0.02, mtbf: 1642, mttr: 2},
}

// ContinentShare returns the fraction of edges located on c (Table 4).
func ContinentShare(c Continent) float64 { return continentCal[c].share }

// Vendor is a fiber vendor operating some of the backbone's links.
type Vendor struct {
	// Name is the vendor identifier ("vendor07").
	Name string
	// LinkMTBF is the mean time between failures of this vendor's links,
	// in hours. Vendors span orders of magnitude (§6.2).
	LinkMTBF float64
	// LinkMTTR is the vendor's mean link repair time in hours, sampled
	// from the paper's fitted model MTTR(p) = 1.1345·e^(4.7709p).
	LinkMTTR float64
}

// Edge is an edge node: a geographical location with backbone hardware.
type Edge struct {
	// Name is the edge identifier ("edge042").
	Name string
	// Continent locates the edge.
	Continent Continent
	// Links are the indices (into Topology.Links) of the edge's fiber
	// links; every edge has at least three.
	Links []int
	// cutMTBF and cutMTTR parameterize the edge-severing process.
	cutMTBF float64
	cutMTTR float64
}

// Link is one end-to-end fiber link.
type Link struct {
	// Name is the link identifier ("link0137").
	Name string
	// Edge is the index of the edge the link serves.
	Edge int
	// Vendor is the index of the operating vendor.
	Vendor int
	// CircuitID mimics the logical fiber-circuit identifiers that appear
	// in vendor notification emails.
	CircuitID string
}

// Topology is the generated backbone.
type Topology struct {
	Edges   []Edge
	Links   []Link
	Vendors []Vendor
}

// The backbone's fixed shape: every edge connects through at least three
// fiber links (§6), here three to six, each operated by one of 24 fiber
// vendors.
const (
	minLinks   = 3
	maxLinks   = 6
	numVendors = 24
)

// Config sizes the backbone and its simulation.
type Config struct {
	// Observe bundles the observability wiring shared by every
	// simulation entry point. The backbone simulation reports into
	// Metrics and Trace only; Validate rejects a Health, Logger, Journal
	// or Timeline sink, which it would never read.
	observe.Observe
	// Edges is the number of edge nodes. Default 120.
	Edges int
	// Months is the observation window in months of 730 hours. Default 18
	// (October 2016 – April 2018).
	Months int
	// Seed roots all randomness.
	Seed uint64
}

// DefaultConfig returns the study-sized configuration.
func DefaultConfig() Config {
	return Config{Edges: 120, Months: 18, Seed: 1}
}

// WindowHours returns the simulated observation window in hours.
func (c Config) WindowHours() float64 { return float64(c.Months) * 730 }

// Validate normalizes the configuration in place — zero-valued sizing
// fields take the DefaultConfig values — then checks the result: at least
// one edge per continent, positive Months, and no observability sink the
// backbone simulation does not read. It is the single normalization step
// the simulation entry points run; calling it again is a no-op.
func (c *Config) Validate() error {
	d := DefaultConfig()
	if c.Edges == 0 {
		c.Edges = d.Edges
	}
	if c.Months == 0 {
		c.Months = d.Months
	}
	switch {
	case c.Edges < len(Continents):
		return fmt.Errorf("backbone: need at least %d edges, got %d", len(Continents), c.Edges)
	case c.Months < 1:
		return fmt.Errorf("backbone: Months must be positive")
	case c.Health != nil:
		return fmt.Errorf("backbone: Observe.Health is not read by the backbone simulation")
	case c.Logger != nil:
		return fmt.Errorf("backbone: Observe.Logger is not read by the backbone simulation")
	case c.Journal != nil:
		return fmt.Errorf("backbone: Observe.Journal is not read by the backbone simulation")
	case c.Timeline != nil:
		return fmt.Errorf("backbone: Observe.Timeline is not read by the backbone simulation")
	}
	return nil
}

// Build generates a backbone topology from cfg. Edge counts per continent
// follow Table 4's distribution; per-edge and per-vendor reliability
// parameters are drawn from the calibrated distributions.
func Build(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := simrand.NewSource(cfg.Seed)
	t := &Topology{}

	vrng := src.Stream("vendors")
	for i := 0; i < numVendors; i++ {
		// Link MTBF: log-normal with median 2326 h (§6.2's 50th
		// percentile), heavy spread, clamped to the observed extremes.
		mtbf := 2326 * math.Exp(1.4*vrng.Normal())
		mtbf = clamp(mtbf, 20, 15000)
		// Link MTTR: inverse-CDF sample of the paper's vendor model.
		mttr := 1.1345 * math.Exp(4.7709*vrng.Float64())
		t.Vendors = append(t.Vendors, Vendor{
			Name:     fmt.Sprintf("vendor%02d", i+1),
			LinkMTBF: mtbf,
			LinkMTTR: mttr,
		})
	}

	// Continent assignment: largest-remainder apportionment of Table 4's
	// shares over cfg.Edges.
	counts := apportion(cfg.Edges)

	erng := src.Stream("edges")
	lrng := src.Stream("links")
	for _, cont := range Continents {
		cal := continentCal[cont]
		for i := 0; i < counts[cont]; i++ {
			e := Edge{
				Name:      fmt.Sprintf("edge%03d", len(t.Edges)+1),
				Continent: cont,
				// Per-edge severing MTBF/MTTR: log-normal around the
				// continent's Table 4 target, giving the high
				// cross-edge variance §6.1 reports (σ chosen so the
				// true spread dominates the ~40% estimator noise of an
				// 18-month window, which is what makes the measured
				// percentile curves exponential like Figures 15/16).
				// The exp(-σ²/2) factor makes the draw mean-unbiased so
				// continent averages land on the calibration targets.
				cutMTBF: cal.mtbf * math.Exp(0.8*erng.Normal()-0.32),
				cutMTTR: cal.mttr * math.Exp(0.9*erng.Normal()-0.405),
			}
			nLinks := minLinks + lrng.Intn(maxLinks-minLinks+1)
			for j := 0; j < nLinks; j++ {
				link := Link{
					Name:      fmt.Sprintf("link%04d", len(t.Links)+1),
					Edge:      len(t.Edges),
					Vendor:    lrng.Intn(numVendors),
					CircuitID: fmt.Sprintf("CKT-%05d-%02d", len(t.Links)+1, j+1),
				}
				e.Links = append(e.Links, len(t.Links))
				t.Links = append(t.Links, link)
			}
			t.Edges = append(t.Edges, e)
		}
	}
	return t, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// apportion distributes n edges over continents by Table 4 shares using
// largest remainders, guaranteeing every continent at least one edge.
func apportion(n int) map[Continent]int {
	counts := make(map[Continent]int, numContinents)
	type rem struct {
		c Continent
		r float64
	}
	var rems []rem
	assigned := 0
	for _, c := range Continents {
		exact := continentCal[c].share * float64(n)
		counts[c] = int(exact)
		rems = append(rems, rem{c, exact - float64(int(exact))})
		assigned += counts[c]
	}
	// Hand out the remainder by largest fractional part (stable because
	// Continents is ordered).
	for assigned < n {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].r > rems[best].r {
				best = i
			}
		}
		counts[rems[best].c]++
		rems[best].r = -1
		assigned++
	}
	for _, c := range Continents {
		if counts[c] == 0 {
			counts[c] = 1
		}
	}
	return counts
}

// LinkDown is one link downtime interval: the unit of the vendor-ticket
// stream. End is when the repair completed; intervals clipped by the end of
// the observation window keep End = window end.
type LinkDown struct {
	// Link, Edge, Vendor name the affected elements.
	Link, Edge, Vendor string
	// Continent is the edge's continent.
	Continent Continent
	// Start and End bound the downtime in hours since the window start.
	Start, End float64
	// Cut marks intervals caused by an edge-severing event rather than an
	// isolated link failure.
	Cut bool
}

// Duration returns the interval length in hours.
func (d LinkDown) Duration() float64 { return d.End - d.Start }

// Simulate runs the failure processes over the observation window and
// returns every link downtime interval, ordered by start time.
func (t *Topology) Simulate(cfg Config) ([]LinkDown, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	window := cfg.WindowHours()
	src := simrand.NewSource(cfg.Seed ^ 0x9e3779b97f4a7c15)
	sim := &des.Simulator{}
	sim.Instrument(cfg.Metrics, cfg.Trace)
	var out []LinkDown

	record := func(link int, start, end float64, cut bool) {
		if start >= window {
			return
		}
		if end > window {
			end = window
		}
		l := t.Links[link]
		out = append(out, LinkDown{
			Link:      l.Name,
			Edge:      t.Edges[l.Edge].Name,
			Vendor:    t.Vendors[l.Vendor].Name,
			Continent: t.Edges[l.Edge].Continent,
			Start:     start,
			End:       end,
			Cut:       cut,
		})
	}

	// Independent per-link failures.
	for i := range t.Links {
		i := i
		v := t.Vendors[t.Links[i].Vendor]
		rng := src.Stream("link/" + t.Links[i].Name)
		var fail des.Handler
		fail = func(now float64, _ int32) {
			at := now + rng.Exp(v.LinkMTBF)
			if at >= window {
				return
			}
			repair := rng.Exp(v.LinkMTTR)
			record(i, at, at+repair, false)
			sim.After(at+repair-sim.Now(), fail, 0)
		}
		sim.After(0, fail, 0)
	}

	// Edge-severing events.
	for e := range t.Edges {
		e := e
		edge := t.Edges[e]
		rng := src.Stream("edge/" + edge.Name)
		var cut des.Handler
		cut = func(now float64, _ int32) {
			// A day of separation between severing events on one edge:
			// monitoring hysteresis and ticket consolidation mean two
			// cuts minutes apart are one field event, and the paper's
			// least reliable edge still averaged 253 h between failures.
			gap := rng.Exp(edge.cutMTBF)
			if gap < 24 {
				gap = 24
			}
			at := now + gap
			if at >= window {
				return
			}
			repair := rng.Exp(edge.cutMTTR)
			for _, li := range edge.Links {
				record(li, at, at+repair, true)
			}
			sim.After(at+repair-sim.Now(), cut, 0)
		}
		sim.After(0, cut, 0)
	}

	sim.Run(window)
	return sortLinkDowns(out), nil
}

// sortLinkDowns returns ds ordered by start time, ties by link name. It
// orders (start, index) pairs and copies each record once, rather than
// swapping 80-byte records. The index is the last tie-break, so the
// order is total; where (Start, Link) is unique, as in every simulated
// history, it is the order a sort by (Start, Link) gives.
func sortLinkDowns(ds []LinkDown) []LinkDown {
	type key struct {
		start float64
		idx   int
	}
	order := make([]key, len(ds))
	for i := range ds {
		order[i] = key{ds[i].Start, i}
	}
	slices.SortFunc(order, func(a, b key) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Or(strings.Compare(ds[a.idx].Link, ds[b.idx].Link), cmp.Compare(a.idx, b.idx))
	})
	sorted := make([]LinkDown, len(ds))
	for k, o := range order {
		sorted[k] = ds[o.idx]
	}
	return sorted
}
