// Package good is simulation-scope code that stays deterministic: seeded
// simrand streams, simulation time from the kernel, sorted map output, and
// an explicitly allowed wall-clock telemetry site.
package good

import (
	"sort"
	"time"

	"dcnr/internal/des"
	"dcnr/internal/simrand"
)

// Delay draws from a seeded stream, not math/rand.
func Delay(rng *simrand.Stream) float64 { return rng.Exp(1) }

// Names sorts the slice it builds from map iteration.
func Names(devices map[string]int) []string {
	var out []string
	for name := range devices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Totals accumulates into a map: insertion order cannot leak out.
func Totals(devices map[string]int) map[string]int {
	out := make(map[string]int, len(devices))
	for name, n := range devices {
		out[name] += n
	}
	return out
}

// WallCost measures a handler's wall-clock cost for telemetry, the
// sanctioned use of the wall clock in simulation code.
func WallCost(sim *des.Simulator, h des.Handler) time.Duration {
	start := time.Now() //lint:allow simdeterminism wall-clock telemetry
	h(sim.Now(), 0)
	return time.Since(start) //lint:allow simdeterminism wall-clock telemetry
}
