package simtime

import (
	"math"
	"math/rand/v2"
)

// RNG is a named deterministic random stream. Each simulation component draws
// from its own stream so that adding randomness to one component does not
// perturb another (a classic discrete-event-simulation discipline).
//
// Every stream is a math/rand/v2 PCG (16 bytes of state) minted by NewRNG,
// the one constructor in the tree; drrs-lint's nosharedrand forbids any
// other. RNG exposes only the draws the simulator uses. It must not be
// copied after NewRNG: its Rand view points at its own PCG.
//
// The draws wrap float products in explicit float64 conversions. The Go spec
// lets a compiler fuse x*y + z into one rounding, and arm64's does; the
// conversion forces the product's own rounding, so a draw gives the same bits
// on every architecture. CI checks that the arm64 build has no fused ops.
type RNG struct {
	pcg  rand.PCG
	rand rand.Rand
}

// NewRNG derives a deterministic stream from a base seed and a component
// name. The FNV-style mix of (seed, name) seeds both PCG state words; PCG's
// output permutation, not the seeding, decorrelates neighbouring names.
func NewRNG(seed int64, name string) *RNG {
	h := uint64(seed)
	for _, c := range name {
		h = h*1099511628211 + uint64(c) // FNV-1a style mix
	}
	r := &RNG{}
	r.pcg.Seed(h, h)
	r.rand = *rand.New(&r.pcg)
	return r
}

// IntN returns a uniform int in [0, n); it panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.rand.IntN(n) }

// Int64N returns a uniform int64 in [0, n); it panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 { return r.rand.Int64N(n) }

// Int64 returns a uniform non-negative int64.
func (r *RNG) Int64() int64 { return r.rand.Int64() }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.rand.Float64() }

// Jitter returns a duration uniformly drawn from [d*(1-f), d*(1+f)].
func (r *RNG) Jitter(d Duration, f float64) Duration {
	if f <= 0 {
		return d
	}
	lo := float64(float64(d) * (1 - f))
	hi := float64(float64(d) * (1 + f))
	return Duration(lo + float64(r.Float64()*(hi-lo)))
}

// Exp returns an exponentially distributed duration with the given mean,
// useful for Poisson arrival processes.
func (r *RNG) Exp(mean Duration) Duration {
	return Duration(r.rand.ExpFloat64() * float64(mean))
}

// Gamma returns a gamma-distributed duration with the given mean and shape k
// (k = 1 is exponential; k < 1 is burstier, k > 1 more regular). Sampling is
// Marsaglia–Tsang squeeze for k >= 1, boosted by U^(1/k) for k < 1.
func (r *RNG) Gamma(mean Duration, k float64) Duration {
	if k <= 0 {
		panic("simtime: Gamma needs shape k > 0")
	}
	shape, boost := k, 1.0
	if shape < 1 {
		boost = math.Pow(r.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.rand.NormFloat64()
			v = 1 + float64(c*x)
			if v > 0 {
				break
			}
		}
		v = float64(v * v * v)
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) || math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			// d*v*boost ~ Gamma(k, 1); scale mean/k makes the mean exact.
			return Duration(d * v * boost * float64(mean) / k)
		}
	}
}

// Weibull returns a Weibull-distributed duration with the given mean and
// shape k (k = 1 is exponential; k < 1 heavy-tailed, k > 1 concentrated),
// sampled by inverse CDF with the scale normalized so the mean is exact.
func (r *RNG) Weibull(mean Duration, k float64) Duration {
	if k <= 0 {
		panic("simtime: Weibull needs shape k > 0")
	}
	scale := float64(mean) / math.Gamma(1+1/k)
	u := 1 - float64(r.Float64()) // (0, 1]: keeps Log finite
	return Duration(scale * math.Pow(-math.Log(u), 1/k))
}

// Zipf draws integers in [0, n) with Zipf skewness s, matching the paper's
// workload-skew parameter (s = 0 is uniform; larger s concentrates mass on
// low ranks). Unlike math/rand's Zipf it accepts any s >= 0 by sampling the
// generalized harmonic CDF directly. A Zipf is a ZipfTable plus the stream it
// draws from; only the stream is per-sampler.
type Zipf struct {
	t *ZipfTable
	r *RNG
}

// ZipfTable is everything about a Zipf distribution that depends only on
// (n, s): the CDF and a guide table into it. It is never written after
// NewZipfTable returns, so any number of samplers, on any number of
// goroutines, may share one — building it is O(n), which matters when
// thousands of cohorts reuse a handful of distributions.
type ZipfTable struct {
	n int
	// cdf is the generalized harmonic CDF over [0, n); nil for s <= 0, where
	// draws are uniform and need no table.
	cdf []float64
	// jump is a guide table (Chen and Asau's indexed search): with nb =
	// len(jump)-1 buckets, jump[b] is the first rank whose CDF reaches b/nb,
	// so a draw u only binary-searches the [jump[b], jump[b+1]] sliver of cdf
	// for b = floor(u*nb). nb is a power of two, so u*scale and b/scale are
	// exact and b is the true bucket of u: the rank found is identical with
	// or without the table, and seeded draw sequences are unaffected.
	jump  []int32
	scale float64 // nb, as a float
}

// The guide table has one bucket per rank, rounded up to a power of two and
// clamped to [zipfMinBuckets, zipfMaxBuckets], so a draw probes O(1) ranks
// on average. The cap bounds a table at 16 KB, because every table counts
// towards every run's allocations.
const (
	zipfMinBuckets = 256
	zipfMaxBuckets = 4096
)

// NewZipfTable precomputes the distribution over [0, n) with skewness s.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("simtime: Zipf needs n > 0")
	}
	t := &ZipfTable{n: n}
	if s <= 0 {
		return t
	}
	t.cdf = make([]float64, n)
	sum := 0.0
	for i := range t.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		t.cdf[i] = sum
	}
	for i := range t.cdf {
		t.cdf[i] /= sum
	}
	nb := zipfMinBuckets
	for nb < n && nb < zipfMaxBuckets {
		nb <<= 1
	}
	t.scale = float64(nb)
	t.jump = make([]int32, nb+1)
	// One sweep: the CDF is non-decreasing, so each bucket edge's first
	// reaching rank is at or past the previous edge's. An edge above every
	// entry, which only rounding can produce, maps to the last rank.
	i := 0
	for b := 1; b <= nb; b++ {
		u := float64(b) / t.scale
		for i < n-1 && t.cdf[i] < u {
			i++
		}
		t.jump[b] = int32(i)
	}
	return t
}

// NewZipf builds a Zipf sampler over [0, n) with skewness s and a table of
// its own.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	return NewZipfFrom(r, NewZipfTable(n, s))
}

// NewZipfFrom builds a Zipf sampler drawing from r over a table that other
// samplers may share; it draws exactly what NewZipf(r, n, s) would.
func NewZipfFrom(r *RNG, t *ZipfTable) *Zipf {
	return &Zipf{t: t, r: r}
}

// Next draws one rank in [0, n).
func (z *Zipf) Next() int {
	t := z.t
	if t.cdf == nil {
		return int(z.r.Int64N(int64(t.n)))
	}
	return t.rank(z.r.Float64())
}

// rank returns the first rank whose CDF value reaches u in [0, 1) (the last
// rank when u exceeds every entry), searching only u's guide-table bucket.
func (t *ZipfTable) rank(u float64) int {
	b := int(u * t.scale)
	lo, hi := int(t.jump[b]), int(t.jump[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
