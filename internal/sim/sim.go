// Package sim is the unified simulation API: one entry point per
// simulated plane (IntraDC, Backbone), each taking a validated config with
// shared observability wiring (observe.Observe) and returning the dataset
// with analysis attached.
//
// The dcnr facade re-exports these types and functions one-to-one; they
// live here so internal orchestrators — the scenario-sweep engine most of
// all — can run simulations without importing the facade. Every config is
// normalized and checked by its Validate method before anything runs, so a
// rejected configuration never burns simulation time and every default is
// applied in exactly one documented place.
package sim

import (
	"fmt"
	"math"

	"dcnr/internal/backbone"
	"dcnr/internal/core"
	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/observe"
	"dcnr/internal/remediation"
	"dcnr/internal/sev"
	"dcnr/internal/tickets"
	"dcnr/internal/topology"
)

// IntraConfig parameterizes the intra-data-center simulation.
type IntraConfig struct {
	// Observe bundles the observability wiring (Metrics, Trace, Health,
	// Logger, Journal, Timeline) shared by every simulation entry point.
	observe.Observe
	// Seed roots all randomness; equal seeds give identical histories.
	Seed uint64
	// Scale multiplies the fleet population and incident volumes
	// uniformly. 1 (the default when zero) is the study's unit scale;
	// 5 produces a "thousands of incidents" dataset like the paper's.
	Scale int
	// FromYear and ToYear bound the simulated years, inclusive. Zero
	// values default to the full 2011–2017 study period.
	FromYear, ToYear int
	// DisableRemediation turns off the automated repair engine — the §5.6
	// ablation. Every fault on a remediation-supported device type then
	// escalates to a service-level incident.
	DisableRemediation bool
	// ElevateYear and ElevateFactor (> 1) multiply the fault arrival
	// rate of one simulated year while health targets stay at
	// calibration — the anomaly-injection scenario that drives burn-rate
	// alerts through pending→firing→resolved. Zero values disable it.
	ElevateYear   int
	ElevateFactor float64
}

// Validate normalizes the configuration in place and rejects what cannot
// run. It is the single normalization step IntraDC performs — the
// zero-value defaulting that used to be scattered through the entry point
// lives here, so callers can pre-validate a config and know exactly what
// will execute. Calling it again is a no-op.
//
// Normalization: Scale 0 becomes 1, FromYear/ToYear 0 become the study
// bounds. Checks: Scale must be ≥ 0, the year range must
// be ordered and inside [fleet.FirstYear, fleet.LastYear], and an
// elevation (either ElevateYear or ElevateFactor set) needs a finite
// ElevateFactor > 1 with ElevateYear inside the simulated range.
func (c *IntraConfig) Validate() error {
	if c.Scale < 0 {
		return fmt.Errorf("sim: Scale must be >= 0, got %d", c.Scale)
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.FromYear == 0 {
		c.FromYear = fleet.FirstYear
	}
	if c.ToYear == 0 {
		c.ToYear = fleet.LastYear
	}
	if c.FromYear > c.ToYear {
		return fmt.Errorf("sim: year range [%d, %d] is not ordered", c.FromYear, c.ToYear)
	}
	if c.FromYear < fleet.FirstYear || c.ToYear > fleet.LastYear {
		return fmt.Errorf("sim: year range [%d, %d] outside study period [%d, %d]",
			c.FromYear, c.ToYear, fleet.FirstYear, fleet.LastYear)
	}
	if c.ElevateYear != 0 || c.ElevateFactor != 0 {
		if !(c.ElevateFactor > 1) || math.IsInf(c.ElevateFactor, 1) {
			return fmt.Errorf("sim: ElevateFactor must be > 1 and finite when elevation is set, got %g", c.ElevateFactor)
		}
		if c.ElevateYear < c.FromYear || c.ElevateYear > c.ToYear {
			return fmt.Errorf("sim: ElevateYear %d outside simulated range [%d, %d]",
				c.ElevateYear, c.FromYear, c.ToYear)
		}
	}
	return nil
}

// IntraResult carries the generated dataset and its analysis handles.
type IntraResult struct {
	// Store is the generated SEV dataset.
	Store *sev.Store
	// Fleet is the population model the dataset was generated against.
	Fleet *fleet.Model
	// Analysis answers the §5 questions over the dataset.
	Analysis *core.IntraAnalysis
	// RemediationStats is the Table 1 data accumulated by the automated
	// repair engine, keyed by device type.
	RemediationStats map[topology.DeviceType]remediation.TypeStats
	// Faults and Incidents count generated device faults and the subset
	// that escalated into SEVs.
	Faults, Incidents int
}

// IntraDC runs the intra-data-center simulation and returns the dataset
// with analysis attached.
func IntraDC(cfg IntraConfig) (*IntraResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dcnr: invalid config: %w", err)
	}
	fl := fleet.New(cfg.Scale)
	driver, err := faults.NewDriver(fl, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("dcnr: building simulation: %w", err)
	}
	if cfg.DisableRemediation {
		driver.Engine.SetEnabled(false)
	}
	driver.Observe(cfg.Observe)
	driver.ElevateYear, driver.ElevateFactor = cfg.ElevateYear, cfg.ElevateFactor
	store, err := driver.Run(cfg.FromYear, cfg.ToYear)
	if err != nil {
		return nil, fmt.Errorf("dcnr: simulating: %w", err)
	}
	return &IntraResult{
		Store:            store,
		Fleet:            fl,
		Analysis:         core.NewIntraAnalysis(store, fl),
		RemediationStats: driver.Engine.Stats(),
		Faults:           driver.Faults(),
		Incidents:        driver.Incidents(),
	}, nil
}

// BackboneResult carries the generated backbone dataset and its analysis.
type BackboneResult struct {
	// Topology is the generated backbone inventory.
	Topology *backbone.Topology
	// Notices is the full vendor notification stream, time-ordered.
	Notices []tickets.Notice
	// Downtimes are the link downtime intervals the collector
	// reconstructed from the notices.
	Downtimes []tickets.Downtime
	// Analysis answers the §6 questions over the reconstructed intervals.
	Analysis *core.InterAnalysis
}

// Backbone generates a backbone per cfg, simulates its failure processes
// over the observation window, and round-trips the repair tickets through
// the generation→parse→pair pipeline, exactly as the study's data flowed
// (§4.3.2).
func Backbone(cfg backbone.Config) (*BackboneResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dcnr: invalid config: %w", err)
	}
	topo, err := backbone.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("dcnr: building backbone: %w", err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("dcnr: simulating backbone: %w", err)
	}
	notices := tickets.Generate(topo, downs)
	coll := tickets.NewCollector()
	// Validate normalized Months, so the window is exactly the simulated
	// one.
	coll.WindowHours = cfg.WindowHours()
	for _, n := range notices {
		// Round-trip through the wire format: what the analysis sees is
		// what a parser recovered, not the generator's structs.
		parsed, err := tickets.Parse(n.Format())
		if err != nil {
			return nil, fmt.Errorf("dcnr: ticket round trip: %w", err)
		}
		if err := coll.Ingest(parsed); err != nil {
			return nil, fmt.Errorf("dcnr: collecting tickets: %w", err)
		}
	}
	dts := coll.Downtimes()
	analysis, err := core.NewInterAnalysis(topo, dts, coll.WindowHours)
	if err != nil {
		return nil, fmt.Errorf("dcnr: analyzing backbone: %w", err)
	}
	return &BackboneResult{
		Topology:  topo,
		Notices:   notices,
		Downtimes: dts,
		Analysis:  analysis,
	}, nil
}
