package simtime

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestRNGSameSeedNameSameStream: one (seed, name) pair is one stream, through
// every draw the tree uses.
func TestRNGSameSeedNameSameStream(t *testing.T) {
	a, b := NewRNG(9, "cost/agg/3"), NewRNG(9, "cost/agg/3")
	for i := 0; i < 1000; i++ {
		if a.IntN(97) != b.IntN(97) || a.Int64N(1<<40) != b.Int64N(1<<40) ||
			a.Int64() != b.Int64() || a.Float64() != b.Float64() ||
			a.Exp(Second) != b.Exp(Second) || a.Gamma(Second, 2) != b.Gamma(Second, 2) {
			t.Fatalf("draw %d diverged", i)
		}
	}
}

// TestRNGNamesDiffer: names that differ in one trailing character — the
// "src/0", "src/1", … pattern every engine instance uses — and neighbouring
// seeds start on different first draws.
func TestRNGNamesDiffer(t *testing.T) {
	seen := make(map[int64]string)
	for seed := int64(1); seed <= 8; seed++ {
		for i := 0; i < 64; i++ {
			label := fmt.Sprintf("src/%d@%d", i, seed)
			first := NewRNG(seed, fmt.Sprintf("src/%d", i)).Int64()
			if prev, ok := seen[first]; ok {
				t.Fatalf("%s and %s share their first draw %d", prev, label, first)
			}
			seen[first] = label
		}
	}
}

// TestNewRNGFootprint: a stream is one 32-byte allocation — the PCG state plus
// the Rand view over it — which is what lets every cohort and every instance
// own two streams.
func TestNewRNGFootprint(t *testing.T) {
	if size := unsafe.Sizeof(RNG{}); size > 32 {
		t.Fatalf("RNG is %d bytes, want <= 32", size)
	}
	if allocs := testing.AllocsPerRun(100, func() { NewRNG(3, "cohort/17/arrivals") }); allocs != 1 {
		t.Fatalf("NewRNG allocates %v times, want 1", allocs)
	}
}

// TestSamplerMeans checks each derived sampler against its analytical mean
// over 1e5 draws. Each tolerance is five to seven standard errors of its
// sample mean (Weibull k = 0.7's heavy tail gets the widest), so a correct
// sampler essentially never fails by chance while a wrong shape or scale — a
// few per cent off — fails every time.
func TestSamplerMeans(t *testing.T) {
	const n = 100000
	const mean = Duration(1000)
	mean1e5 := func(draw func() Duration) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(draw())
		}
		return sum / n
	}
	r := NewRNG(23, "means")
	for _, c := range []struct {
		name string
		draw func() Duration
		tol  float64 // relative
	}{
		{"Exp", func() Duration { return r.Exp(mean) }, 0.02},
		{"Gamma k=0.5", func() Duration { return r.Gamma(mean, 0.5) }, 0.025},
		{"Gamma k=2", func() Duration { return r.Gamma(mean, 2) }, 0.015},
		{"Weibull k=0.7", func() Duration { return r.Weibull(mean, 0.7) }, 0.03},
		{"Weibull k=1.5", func() Duration { return r.Weibull(mean, 1.5) }, 0.015},
	} {
		if got := mean1e5(c.draw); math.Abs(got/float64(mean)-1) > c.tol {
			t.Errorf("%s: sample mean %.1f, want %d ± %.1f%%", c.name, got, mean, 100*c.tol)
		}
	}

	// Zipf over 100 ranks at s = 1: rank 0 has probability 1/H(100) ≈ 0.193,
	// standard error ≈ 0.00125 over 1e5 draws.
	z := NewZipf(r, 100, 1)
	hits := 0
	for i := 0; i < n; i++ {
		if z.Next() == 0 {
			hits++
		}
	}
	h := 0.0
	for k := 1; k <= 100; k++ {
		h += 1 / float64(k)
	}
	if got, want := float64(hits)/n, 1/h; math.Abs(got-want) > 0.0065 {
		t.Errorf("Zipf rank-0 frequency %.4f, want %.4f ± 0.0065", got, want)
	}
}
