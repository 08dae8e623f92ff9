// Package clean is violation-free: the end-to-end test asserts the driver
// reports nothing for it.
package clean

import (
	"sort"

	"dcnr/internal/des"
	"dcnr/internal/simrand"
)

// Jittered schedules with seeded randomness on simulation time.
func Jittered(sim *des.Simulator, rng *simrand.Stream, h des.Handler) {
	sim.After(rng.Exp(1), h, 0)
}

// Sorted returns map keys deterministically.
func Sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
