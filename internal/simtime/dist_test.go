package simtime

import (
	"math"
	"math/bits"
	"testing"
)

// TestGammaMean checks the Marsaglia–Tsang sampler hits the requested mean
// across shapes on both sides of the k=1 boost branch.
func TestGammaMean(t *testing.T) {
	for _, k := range []float64{0.3, 0.5, 1, 2, 4} {
		r := NewRNG(11, "gamma")
		mean := Duration(1000)
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			v := r.Gamma(mean, k)
			if v < 0 {
				t.Fatalf("k=%v: negative sample %v", k, v)
			}
			sum += float64(v)
		}
		got := sum / float64(n)
		if math.Abs(got-1000) > 60 {
			t.Errorf("k=%v: gamma mean %v too far from 1000", k, got)
		}
	}
}

// TestGammaShapeControlsBurstiness: smaller shape means higher variance at
// the same mean (the property cohort specs rely on for bursty sessions).
func TestGammaShapeControlsBurstiness(t *testing.T) {
	variance := func(k float64) float64 {
		r := NewRNG(5, "gammavar")
		n := 30000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Gamma(1000, k))
			sum += v
			sumSq += v * v
		}
		m := sum / float64(n)
		return sumSq/float64(n) - m*m
	}
	if variance(0.5) <= variance(4) {
		t.Fatal("gamma k=0.5 should be burstier (higher variance) than k=4")
	}
}

// TestWeibullMean checks the inverse-CDF sampler against the requested mean,
// including the heavy-tailed k<1 regime.
func TestWeibullMean(t *testing.T) {
	for _, k := range []float64{0.6, 0.8, 1, 2} {
		r := NewRNG(13, "weibull")
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			v := r.Weibull(1000, k)
			if v < 0 {
				t.Fatalf("k=%v: negative sample %v", k, v)
			}
			sum += float64(v)
		}
		got := sum / float64(n)
		// k<1 has heavy tails, so the sample mean converges slowly.
		tol := 80.0
		if k < 1 {
			tol = 160
		}
		if math.Abs(got-1000) > tol {
			t.Errorf("k=%v: weibull mean %v too far from 1000", k, got)
		}
	}
}

// TestWeibullUnitShapeIsExponential: at k=1 the Weibull reduces to the
// exponential, so its tail mass should match Exp's within sampling noise.
func TestWeibullUnitShapeIsExponential(t *testing.T) {
	r := NewRNG(17, "wexp")
	n := 50000
	tail := 0
	for i := 0; i < n; i++ {
		if r.Weibull(1000, 1) > 2000 {
			tail++
		}
	}
	// P(X > 2·mean) = e^-2 ≈ 0.135 for the exponential.
	frac := float64(tail) / float64(n)
	if math.Abs(frac-math.Exp(-2)) > 0.01 {
		t.Fatalf("weibull k=1 tail mass %v, want ≈ %v", frac, math.Exp(-2))
	}
}

// TestGammaWeibullDeterminism: same (seed, name) streams replay identically —
// the property every cohort stream depends on.
func TestGammaWeibullDeterminism(t *testing.T) {
	a, b := NewRNG(3, "d"), NewRNG(3, "d")
	for i := 0; i < 200; i++ {
		if a.Gamma(500, 0.7) != b.Gamma(500, 0.7) {
			t.Fatal("gamma streams diverged")
		}
		if a.Weibull(500, 0.9) != b.Weibull(500, 0.9) {
			t.Fatal("weibull streams diverged")
		}
	}
}

// TestGammaWeibullRejectBadShape: non-positive shapes are programming errors.
func TestGammaWeibullRejectBadShape(t *testing.T) {
	for name, fn := range map[string]func(*RNG){
		"gamma":   func(r *RNG) { r.Gamma(1000, 0) },
		"weibull": func(r *RNG) { r.Weibull(1000, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-positive shape", name)
				}
			}()
			fn(NewRNG(1, "bad"))
		}()
	}
}

// TestZipfSharedMatchesOwned: samplers drawing over one shared ZipfTable
// produce the exact sequence of samplers that each built their own — the
// invariant that lets thousands of cohorts share a handful of tables.
func TestZipfSharedMatchesOwned(t *testing.T) {
	for _, s := range []float64{0, 0.9, 1.5} {
		table := NewZipfTable(256, s)
		for _, name := range []string{"zs", "zt"} {
			own := NewZipf(NewRNG(21, name), 256, s)
			shared := NewZipfFrom(NewRNG(21, name), table)
			for i := 0; i < 5000; i++ {
				if a, b := own.Next(), shared.Next(); a != b {
					t.Fatalf("s=%v %s: shared-table draw %d diverged: %d vs %d", s, name, i, a, b)
				}
			}
		}
	}
}

// TestZipfCDFValidation pins the table contract: no CDF for the uniform case
// (s <= 0 draws every rank), panic on a nonsensical size.
func TestZipfCDFValidation(t *testing.T) {
	for _, s := range []float64{0, -1} {
		table := NewZipfTable(10, s)
		if table.cdf != nil {
			t.Fatalf("s=%v should need no CDF (uniform)", s)
		}
		z := NewZipfFrom(NewRNG(1, "u"), table)
		var seen [10]bool
		for i := 0; i < 1000; i++ {
			seen[z.Next()] = true
		}
		for rank, ok := range seen {
			if !ok {
				t.Errorf("s=%v: uniform draws never produced rank %d", s, rank)
			}
		}
	}
	if got := len(NewZipfTable(10, 1).cdf); got != 10 {
		t.Fatalf("CDF length %d, want 10", got)
	}
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipfTable accepted n=%d", n)
				}
			}()
			NewZipfTable(n, 1)
		}()
	}
}

// searchCDF is the unguided reference for ZipfTable.rank: a binary search
// over the whole CDF for the first index whose value reaches u (n-1 when u
// exceeds every entry, which only floating-point rounding can produce).
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideTableExact: the guided search returns searchCDF's rank over
// the whole CDF for every u — at random, at every bucket edge b/nb and one
// ulp either side of it — for key spaces below, at and above the table's
// bucket bounds, so sizing the table to the key space changes no draw.
func TestZipfGuideTableExact(t *testing.T) {
	r := NewRNG(3, "guide")
	for _, n := range []int{1, 2, 255, 256, 257, 4095, 4096, 4097, 30000} {
		wantNB := min(max(1<<bits.Len(uint(n-1)), zipfMinBuckets), zipfMaxBuckets)
		for _, s := range []float64{0.5, 0.8, 1.2} {
			table := NewZipfTable(n, s)
			nb := len(table.jump) - 1
			if nb != wantNB || table.scale != float64(nb) {
				t.Fatalf("n=%d s=%v: %d buckets (scale %v), want %d", n, s, nb, table.scale, wantNB)
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := table.rank(u), searchCDF(table.cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: guided rank %d, full search %d", n, s, u, got, want)
				}
			}
			for b := 0; b <= nb; b++ {
				edge := float64(b) / float64(nb)
				check(edge)
				check(math.Nextafter(edge, -1))
				check(math.Nextafter(edge, 2))
			}
			for i := 0; i < 100_000; i++ {
				check(r.Float64())
			}
		}
	}
}
