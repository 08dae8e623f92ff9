// Package simrand provides deterministic, splittable pseudo-random streams
// for the simulator.
//
// Every source of randomness in the simulation is a named substream derived
// from a single root seed. Substreams are independent: adding a new consumer
// (a new device type, a new vendor) does not perturb the draws seen by
// existing consumers, so calibrated experiments remain stable as the
// simulator grows. The generator is a 64-bit SplitMix64/xoshiro256** pair,
// implemented here so the simulation does not depend on the (historically
// unstable) sequence of math/rand.
package simrand

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random stream. The zero value is not
// usable; construct streams with New or Source.Stream.
type Stream struct {
	s [4]uint64
}

// Source derives named substreams from a root seed.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream derives the substream identified by name. The same (seed, name)
// pair always yields an identical stream.
func (s *Source) Stream(name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(s.seed ^ h.Sum64())
}

// New returns a Stream seeded by seed via SplitMix64 state expansion.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st.s[i] = z ^ (z >> 31)
	}
	// xoshiro256** requires a non-zero state; SplitMix64 guarantees that
	// except for astronomically unlikely seeds, which we guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns a draw from the exponential distribution with the given mean.
// It panics if mean <= 0.
func (r *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("simrand: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// LogNormal returns a draw from the log-normal distribution whose underlying
// normal has mean mu and standard deviation sigma.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Normal returns a standard normal draw (Marsaglia polar method).
func (r *Stream) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson draw with the given mean (Knuth for small means,
// normal approximation above 64 to stay O(1)).
func (r *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(mean + math.Sqrt(mean)*r.Normal()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}

// Weighted returns an index drawn from the categorical distribution given by
// weights. Weights need not sum to 1; negative weights count as zero. If all
// weights are zero, Weighted returns 0.
func (r *Stream) Weighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
