// Benchmarks regenerating the paper's evaluation figures (one Benchmark per
// table/figure). Each benchmark runs the corresponding scaled-down scenario
// and reports the figure's headline numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints a compact rendition of the whole evaluation. Figures 10–13 derive
// from the same runs (as in the paper), shared through a per-process cache.
package drrs

import (
	"fmt"
	"sync"
	"testing"

	"drrs/internal/bench"
	"drrs/internal/simtime"
)

// outcomeCache memoizes scenario runs so the Fig 10/11/12/13 benchmarks do
// not re-simulate identical configurations. Each key owns a sync.Once, so
// concurrent callers of distinct configurations simulate in parallel while
// callers of the same configuration share one run — no lock is held while a
// simulation executes.
var outcomeCache sync.Map // key string → *outcomeEntry

type outcomeEntry struct {
	once sync.Once
	o    bench.Outcome
}

func cachedRun(workload, mech string, seed int64) bench.Outcome {
	key := fmt.Sprintf("%s|%s|%d", workload, mech, seed)
	v, _ := outcomeCache.LoadOrStore(key, &outcomeEntry{})
	e := v.(*outcomeEntry)
	e.once.Do(func() {
		sc := bench.ScenarioByName(workload, seed)
		e.o = sc.Run(bench.Mechanisms(mech))
	})
	return e.o
}

// BenchmarkFig02_Motivation regenerates Fig 2: Unbound vs OTFS vs No Scale
// on the Twitch workload. The reported metrics are the peak/average latency
// ratios relative to the non-scaling run — the paper's "Unbound ≈ No Scale"
// observation.
func BenchmarkFig02_Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unbound := cachedRun("twitch", "unbound", 1)
		otfs := cachedRun("twitch", "otfs", 1)
		base := cachedRun("twitch", "no-scale", 1)
		from, to := unbound.ScaleAt, unbound.EndAt
		b.ReportMetric(otfs.PeakIn(from, to)/base.PeakIn(from, to), "otfs-peak-x")
		b.ReportMetric(unbound.PeakIn(from, to)/base.PeakIn(from, to), "unbound-peak-x")
		b.ReportMetric(otfs.AvgIn(from, to)/base.AvgIn(from, to), "otfs-avg-x")
		b.ReportMetric(unbound.AvgIn(from, to)/base.AvgIn(from, to), "unbound-avg-x")
		b.ReportMetric(unbound.Scale.CumulativeSuspension().Millis(), "unbound-susp-ms")
	}
}

// headToHead runs the Fig 10 comparison for one workload and reports peak
// and average latency plus the scaling period per mechanism.
func headToHead(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, mech := range []string{"drrs", "meces", "megaphone"} {
			o := cachedRun(workload, mech, 1)
			if !o.Done {
				b.Fatalf("%s/%s never completed scaling", workload, mech)
			}
			from, to := o.ScaleAt, o.EndAt
			b.ReportMetric(o.PeakIn(from, to), mech+"-peak-ms")
			b.ReportMetric(o.AvgIn(from, to), mech+"-avg-ms")
			b.ReportMetric(o.ScalingPeriod().Seconds(), mech+"-scaling-s")
		}
	}
}

// BenchmarkFig10_Latency_* regenerate the end-to-end latency comparison
// (DRRS vs Meces vs Megaphone) per workload.
func BenchmarkFig10_Latency_Q7(b *testing.B)     { headToHead(b, "q7") }
func BenchmarkFig10_Latency_Q8(b *testing.B)     { headToHead(b, "q8") }
func BenchmarkFig10_Latency_Twitch(b *testing.B) { headToHead(b, "twitch") }

// throughputFig reports Fig 11's signature: the depth of the throughput dip
// during scaling (min rate / offered rate) and the recovery overshoot.
func throughputFig(b *testing.B, workload string, offered float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, mech := range []string{"drrs", "meces", "megaphone"} {
			o := cachedRun(workload, mech, 1)
			pts := o.Throughput.Series().Slice(o.ScaleAt, o.EndAt)
			minV, maxV := offered, 0.0
			for _, p := range pts {
				if p.V < minV {
					minV = p.V
				}
				if p.V > maxV {
					maxV = p.V
				}
			}
			b.ReportMetric(minV/offered, mech+"-dip-frac")
			b.ReportMetric(maxV/offered, mech+"-overshoot-x")
		}
	}
}

// BenchmarkFig11_Throughput_* regenerate the throughput timelines' headline
// shape per workload.
func BenchmarkFig11_Throughput_Q7(b *testing.B)     { throughputFig(b, "q7", 4000) }
func BenchmarkFig11_Throughput_Q8(b *testing.B)     { throughputFig(b, "q8", 1000) }
func BenchmarkFig11_Throughput_Twitch(b *testing.B) { throughputFig(b, "twitch", 4000) }

// propDepFig reports Fig 12: cumulative propagation delay and average
// dependency-related overhead.
func propDepFig(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, mech := range []string{"drrs", "meces", "megaphone"} {
			o := cachedRun(workload, mech, 1)
			b.ReportMetric(o.Scale.CumulativePropagationDelay().Millis(), mech+"-prop-ms")
			b.ReportMetric(o.Scale.AvgDependencyOverhead().Millis(), mech+"-dep-ms")
		}
	}
}

// BenchmarkFig12_PropDep_* regenerate the propagation/dependency comparison.
func BenchmarkFig12_PropDep_Q7(b *testing.B)     { propDepFig(b, "q7") }
func BenchmarkFig12_PropDep_Q8(b *testing.B)     { propDepFig(b, "q8") }
func BenchmarkFig12_PropDep_Twitch(b *testing.B) { propDepFig(b, "twitch") }

// suspensionFig reports Fig 13: cumulative suspension time.
func suspensionFig(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, mech := range []string{"drrs", "meces", "megaphone"} {
			o := cachedRun(workload, mech, 1)
			b.ReportMetric(o.Scale.CumulativeSuspension().Millis(), mech+"-susp-ms")
		}
	}
}

// BenchmarkFig13_Suspension_* regenerate the suspension comparison.
func BenchmarkFig13_Suspension_Q7(b *testing.B)     { suspensionFig(b, "q7") }
func BenchmarkFig13_Suspension_Q8(b *testing.B)     { suspensionFig(b, "q8") }
func BenchmarkFig13_Suspension_Twitch(b *testing.B) { suspensionFig(b, "twitch") }

// BenchmarkFig14_Ablation regenerates the mechanism ablation on Twitch:
// full DRRS vs DR-only vs Schedule-only vs Subscale-only.
func BenchmarkFig14_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mech := range []string{"drrs", "drrs-dr", "drrs-schedule", "drrs-subscale"} {
			o := cachedRun("twitch", mech, 1)
			b.ReportMetric(o.PeakIn(o.ScaleAt, o.EndAt), mech+"-peak-ms")
			b.ReportMetric(o.AvgIn(o.ScaleAt, o.EndAt), mech+"-avg-ms")
		}
	}
}

// BenchmarkFig15_Sensitivity regenerates a compact slice of the sensitivity
// grid (rate × state × skew) and reports each mechanism's mean throughput
// deviation across the grid (records/s below the offered load).
func BenchmarkFig15_Sensitivity(b *testing.B) {
	rates := []float64{4000, 10000}
	states := []int{5 << 20, 20 << 20}
	skews := []float64{0, 1.0}
	for i := 0; i < b.N; i++ {
		for _, mech := range []string{"drrs", "megaphone", "meces"} {
			pts, _, err := bench.Harness{}.Fig15(1, rates, states, skews, []string{mech})
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			for _, p := range pts {
				sum += p.Deviation
			}
			b.ReportMetric(sum/float64(len(pts)), mech+"-mean-dev-rps")
		}
	}
}

// BenchmarkEngineThroughput measures the raw simulation speed of the engine
// itself (one twitch/no-scale run; records per wall second is the unit that
// compares across commits) — not a paper figure, but the number that bounds
// every experiment above.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := bench.TwitchScenario(int64(i + 100))
		o := sc.Run(nil)
		b.ReportMetric(float64(o.Throughput.Total()), "records")
		_ = o
	}
}

var _ = simtime.Second
