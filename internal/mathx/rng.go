// Package mathx provides the small numeric substrate shared by every other
// package in the repository: float32 vector and matrix helpers tuned for the
// embedding workloads, and a deterministic splitmix64-based random number
// generator so that datasets, model initialization, and experiments are
// reproducible bit-for-bit.
package mathx

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is intentionally not safe for concurrent use; create one
// RNG per goroutine (Split derives independent streams).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, statistically independent generator from r. The
// derived stream depends only on r's current state, so the derivation is
// itself deterministic.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1). The outer conversion keeps
// an inlined caller's 1-x from fusing with the scaling (see Dot).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Draw u1 in (0,1] to avoid log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Zipf returns a value in [0, n) drawn from a truncated Zipf distribution
// with exponent s. Small indices are exponentially more likely, mimicking
// the popularity skew of knowledge-graph entity references.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-transform sampling on the (approximated) continuous Zipf CDF.
	u := r.Float64()
	if s == 1 {
		s = 1.0001
	}
	x := math.Pow(1-float64(u*(1-math.Pow(float64(n), 1-s))), 1/(1-s))
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}
