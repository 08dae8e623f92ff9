// Package capacity turns the study's reliability measurements into
// provisioning decisions, the way §5.2 and §6.1 describe Facebook using
// them: "we currently provision eight Cores in each data center, which
// allows us to tolerate one unavailable Core ... without any impact", and
// "we use these models in capacity planning to calculate conditional risk
// ... We plan edge and link capacity to tolerate the 99.99th percentile of
// conditional risk."
//
// A device's steady-state unavailability follows from its measured MTBF
// and MTTR (u = MTTR/(MTBF+MTTR)); with independent failures inside a
// redundancy group, the number of concurrently-down devices is binomial.
// The planner sizes groups so that the probability of losing more devices
// than the group can spare stays below the availability target.
package capacity

import (
	"errors"
	"fmt"
	"math"
)

// Unavailability returns the steady-state probability a device is down
// given its mean time between failures and mean time to repair (hours).
func Unavailability(mtbf, mttr float64) (float64, error) {
	if mtbf <= 0 || mttr < 0 {
		return 0, fmt.Errorf("capacity: invalid MTBF %v / MTTR %v", mtbf, mttr)
	}
	return mttr / (mtbf + mttr), nil
}

// binomTail returns P(X >= k) for X ~ Binomial(n, p), computed stably in
// log space.
func binomTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	logP, log1P := math.Log(p), math.Log1p(-p)
	tail := 0.0
	for i := k; i <= n; i++ {
		logC, _ := math.Lgamma(float64(n + 1))
		l1, _ := math.Lgamma(float64(i + 1))
		l2, _ := math.Lgamma(float64(n - i + 1))
		logTerm := logC - l1 - l2 + float64(i)*logP + float64(n-i)*log1P
		tail += math.Exp(logTerm)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// GroupRisk returns the probability that a redundancy group of n devices,
// each with the given unavailability, has more than spare devices down
// simultaneously — i.e. the group cannot mask the failures.
func GroupRisk(n, spare int, unavailability float64) (float64, error) {
	if n < 1 || spare < 0 || spare >= n {
		return 0, fmt.Errorf("capacity: invalid group n=%d spare=%d", n, spare)
	}
	if unavailability < 0 || unavailability > 1 {
		return 0, errors.New("capacity: unavailability outside [0, 1]")
	}
	return binomTail(n, spare+1, unavailability), nil
}

// Plan is a provisioning recommendation.
type Plan struct {
	// Need is the number of devices required to carry the load.
	Need int
	// Provision is the recommended group size (Need + spares).
	Provision int
	// Risk is the residual probability of losing more than the spares.
	Risk float64
}

// Spares returns the redundancy headroom.
func (p Plan) Spares() int { return p.Provision - p.Need }

// Provision sizes a redundancy group: the smallest group of size >= need
// whose probability of having fewer than need devices up stays below
// maxRisk. It returns an error if no group of at most 4x need suffices
// (the unavailability is too high to engineer around with spares alone).
func Provision(need int, unavailability, maxRisk float64) (Plan, error) {
	if need < 1 {
		return Plan{}, errors.New("capacity: need at least one device")
	}
	if maxRisk <= 0 || maxRisk >= 1 {
		return Plan{}, errors.New("capacity: maxRisk outside (0, 1)")
	}
	if unavailability < 0 || unavailability > 1 {
		return Plan{}, errors.New("capacity: unavailability outside [0, 1]")
	}
	for n := need; n <= 4*need; n++ {
		risk := binomTail(n, n-need+1, unavailability)
		if risk <= maxRisk {
			return Plan{Need: need, Provision: n, Risk: risk}, nil
		}
	}
	return Plan{}, fmt.Errorf("capacity: cannot reach risk %g with up to %d devices (unavailability %g)",
		maxRisk, 4*need, unavailability)
}

// FourNines is the availability target §6.1 reports Facebook planning to:
// tolerate the 99.99th percentile of conditional risk.
const FourNines = 1e-4
