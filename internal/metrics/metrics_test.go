package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"drrs/internal/simtime"
)

func TestSeriesAppendAndSlice(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 10; i++ {
		s.Append(simtime.Time(i*100), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len %d", s.Len())
	}
	got := s.Slice(200, 500)
	if len(got) != 3 || got[0].V != 2 || got[2].V != 4 {
		t.Fatalf("slice %v", got)
	}
	if got := s.Slice(5000, 6000); len(got) != 0 {
		t.Fatalf("out-of-range slice %v", got)
	}
}

func TestSeriesBackwardsPanics(t *testing.T) {
	s := NewSeries("x")
	s.Append(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards append")
		}
	}()
	s.Append(50, 2)
}

func TestDownsample(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Append(simtime.Time(i)*simtime.Time(simtime.Millisecond), float64(i))
	}
	out := s.Downsample(10 * simtime.Millisecond)
	if len(out) != 10 {
		t.Fatalf("buckets %d", len(out))
	}
	if out[0].V != 4.5 { // mean of 0..9
		t.Fatalf("bucket mean %v", out[0].V)
	}
}

func TestDownsampleEmpty(t *testing.T) {
	if out := NewSeries("x").Downsample(simtime.Millisecond); out != nil {
		t.Fatalf("expected nil, got %v", out)
	}
}

func TestLatencyTracker(t *testing.T) {
	l := NewLatencyTracker()
	l.Observe(simtime.Time(10*simtime.Millisecond), 0)
	l.Observe(simtime.Time(30*simtime.Millisecond), simtime.Time(10*simtime.Millisecond))
	if got := l.PeakIn(0, simtime.Time(simtime.Second)); got != 20 {
		t.Fatalf("peak %v", got)
	}
	if got := l.AvgIn(0, simtime.Time(simtime.Second)); got != 15 {
		t.Fatalf("avg %v", got)
	}
	// An empty window reads 0 for both, not ±Inf or NaN.
	from, to := simtime.Time(simtime.Second), simtime.Time(2*simtime.Second)
	if peak, avg := l.PeakIn(from, to), l.AvgIn(from, to); peak != 0 || avg != 0 {
		t.Fatalf("empty window peak %v avg %v", peak, avg)
	}
}

func TestStabilizesAt(t *testing.T) {
	l := NewLatencyTracker()
	// Pre-scale level 10ms; spike to 100ms during [1s,3s); settle after.
	at := func(s float64) simtime.Time { return simtime.Time(simtime.Sec(s)) }
	for i := 0; i < 100; i++ {
		ts := at(float64(i) * 0.1)
		var lat simtime.Duration
		switch {
		case ts >= at(1) && ts < at(3):
			lat = simtime.Ms(100)
		default:
			lat = simtime.Ms(10)
		}
		l.Observe(ts.Add(lat), ts)
	}
	end, ok := StabilizesOn(l.Series.Points(), at(1), 10, 1.10, simtime.Sec(2))
	if !ok {
		t.Fatal("should stabilize")
	}
	if end < at(3) || end > at(3.5) {
		t.Fatalf("stabilized at %v", end)
	}
}

func TestStabilizesAtNever(t *testing.T) {
	l := NewLatencyTracker()
	for i := 0; i < 20; i++ {
		ts := simtime.Time(simtime.Sec(float64(i)))
		l.Observe(ts.Add(simtime.Ms(500)), ts)
	}
	_, ok := StabilizesOn(l.Series.Points(), 0, 10, 1.10, simtime.Sec(5))
	if ok {
		t.Fatal("should not stabilize")
	}
}

func TestStabilizesAtHoldViolation(t *testing.T) {
	l := NewLatencyTracker()
	at := func(s float64) simtime.Time { return simtime.Time(simtime.Sec(s)) }
	// Spike at 0.5s falls inside the first candidate hold window, so the
	// window must restart after the spike.
	seq := []struct {
		ts  float64
		lat float64 // ms
	}{{0, 10}, {0.5, 100}, {1.0, 10}, {1.5, 10}, {2.0, 10}, {2.5, 10}, {3.0, 10}}
	for _, e := range seq {
		l.Observe(at(e.ts).Add(simtime.Ms(e.lat)), at(e.ts))
	}
	end, ok := StabilizesOn(l.Series.Points(), 0, 10, 1.10, simtime.Sec(1))
	if !ok {
		t.Fatal("should stabilize")
	}
	if end < at(1) {
		t.Fatalf("stabilized too early at %v (spike at 0.5s inside hold window)", end)
	}
}

func TestThroughputTracker(t *testing.T) {
	tr := NewThroughputTracker(simtime.Second)
	for i := 0; i < 10; i++ {
		tr.Observe(simtime.Time(simtime.Sec(0.1*float64(i))), 1)
	}
	tr.Observe(simtime.Time(simtime.Sec(2.5)), 5)
	s := tr.Series()
	if s.Len() != 3 {
		t.Fatalf("series len %d", s.Len())
	}
	if s.At(0).V != 10 {
		t.Fatalf("bucket0 %v", s.At(0).V)
	}
	if s.At(1).V != 0 { // gap zero-filled
		t.Fatalf("bucket1 %v", s.At(1).V)
	}
	if s.At(2).V != 5 {
		t.Fatalf("bucket2 %v", s.At(2).V)
	}
	if tr.Total() != 15 {
		t.Fatalf("total %d", tr.Total())
	}
}

func TestThroughputRateIn(t *testing.T) {
	tr := NewThroughputTracker(simtime.Second)
	tr.Observe(simtime.Time(simtime.Sec(0.5)), 100)
	tr.Observe(simtime.Time(simtime.Sec(1.5)), 50)
	tr.Observe(simtime.Time(simtime.Sec(2.5)), 150)
	// Whole window: 300 records over 3 bucket-seconds.
	if got := tr.RateIn(0, simtime.Time(simtime.Sec(3))); got != 100 {
		t.Fatalf("RateIn(0,3s) = %v, want 100", got)
	}
	// A window inside one bucket reads that bucket's rate.
	if got := tr.RateIn(simtime.Time(simtime.Sec(1)), simtime.Time(simtime.Sec(1.5))); got != 50 {
		t.Fatalf("RateIn(1s,1.5s) = %v, want 50", got)
	}
	// Negative from clamps to the origin (early-run sampling windows).
	if got := tr.RateIn(simtime.Time(-simtime.Sec(1)), simtime.Time(simtime.Sec(1))); got != 100 {
		t.Fatalf("RateIn(-1s,1s) = %v, want 100", got)
	}
	// A partially elapsed trailing bucket is excluded, not diluted: the
	// window [0, 1.5s) covers only bucket 0 completely.
	if got := tr.RateIn(0, simtime.Time(simtime.Sec(1.5))); got != 100 {
		t.Fatalf("RateIn(0,1.5s) = %v, want 100 (partial bucket must not dilute)", got)
	}
	// Buckets past the last observed one count as empty: [2s, 5s) holds
	// 150 records over 3 bucket-seconds, and a window wholly after the last
	// observation reads 0.
	if got := tr.RateIn(simtime.Time(simtime.Sec(2)), simtime.Time(simtime.Sec(5))); got != 50 {
		t.Fatalf("RateIn(2s,5s) = %v, want 50", got)
	}
	if got := tr.RateIn(simtime.Time(simtime.Sec(10)), simtime.Time(simtime.Sec(12))); got != 0 {
		t.Fatalf("RateIn(10s,12s) = %v, want 0", got)
	}
	// Empty and degenerate windows report 0.
	if got := tr.RateIn(simtime.Time(simtime.Sec(2)), simtime.Time(simtime.Sec(2))); got != 0 {
		t.Fatalf("empty window = %v, want 0", got)
	}
	if got := NewThroughputTracker(simtime.Second).RateIn(0, simtime.Time(simtime.Sec(1))); got != 0 {
		t.Fatalf("empty tracker = %v, want 0", got)
	}
}

func TestThroughputDeviation(t *testing.T) {
	tr := NewThroughputTracker(simtime.Second)
	// 3 buckets at 100, 50, 150 against target 100 → shortfalls 0, 50, 0 → mean 50/3
	tr.Observe(simtime.Time(simtime.Sec(0.5)), 100)
	tr.Observe(simtime.Time(simtime.Sec(1.5)), 50)
	tr.Observe(simtime.Time(simtime.Sec(2.5)), 150)
	dev := tr.DeviationFrom(100, 0, simtime.Time(simtime.Sec(3)))
	if math.Abs(dev-50.0/3) > 1e-9 {
		t.Fatalf("deviation %v", dev)
	}
}

func TestScalingMetricsPropagationAndDependency(t *testing.T) {
	m := NewScalingMetrics()
	m.MarkScaleStart(0)
	m.SignalInjected("s1", 100)
	m.SignalInjected("s2", 200)
	m.UnitAssigned(1, "s1")
	m.UnitAssigned(2, "s1")
	m.UnitAssigned(3, "s2")
	m.FirstMigration("s1", 150)
	m.FirstMigration("s2", 280)
	m.UnitMigrated(1, 160)
	m.UnitMigrated(2, 300)
	m.UnitMigrated(3, 320)
	m.MarkScaleEnd(320)

	if got := m.CumulativePropagationDelay(); got != 50+80 {
		t.Fatalf("prop %v", got)
	}
	// dep: (160-100)+(300-100)+(320-200) = 60+200+120 = 380 → /3
	if got := m.AvgDependencyOverhead(); got != 380/3 {
		t.Fatalf("dep %v", got)
	}
	if m.MigrationDuration() != 320 {
		t.Fatalf("dur %v", m.MigrationDuration())
	}
	if m.UnitsMigrated() != 3 {
		t.Fatalf("units %d", m.UnitsMigrated())
	}
}

func TestScalingMetricsIdempotentMarks(t *testing.T) {
	m := NewScalingMetrics()
	m.SignalInjected("s", 100)
	m.SignalInjected("s", 999) // ignored
	m.FirstMigration("s", 150)
	m.FirstMigration("s", 151) // ignored
	m.UnitAssigned(1, "s")
	m.UnitMigrated(1, 200)
	m.UnitMigrated(1, 999) // ignored
	if m.CumulativePropagationDelay() != 50 {
		t.Fatalf("prop %v", m.CumulativePropagationDelay())
	}
	if m.AvgDependencyOverhead() != 100 {
		t.Fatalf("dep %v", m.AvgDependencyOverhead())
	}
}

func TestSuspensionAccounting(t *testing.T) {
	m := NewScalingMetrics()
	m.SuspendBegin("i0", 100)
	m.SuspendBegin("i0", 120) // reentrant, ignored
	m.SuspendEnd("i0", 200)
	m.SuspendEnd("i0", 300) // not open, ignored
	m.SuspendBegin("i1", 150)
	m.SuspendEnd("i1", 250)
	if got := m.CumulativeSuspension(); got != 200 {
		t.Fatalf("susp %v", got)
	}
	if m.SuspensionCurve().Len() != 2 {
		t.Fatalf("curve %d", m.SuspensionCurve().Len())
	}
}

func TestCloseAllSuspensions(t *testing.T) {
	m := NewScalingMetrics()
	m.SuspendBegin("a", 100)
	m.SuspendBegin("b", 200)
	m.CloseAllSuspensions(300)
	if got := m.CumulativeSuspension(); got != 200+100 {
		t.Fatalf("susp %v", got)
	}
}

// TestCloseAllSuspensionsDeterministic is the regression guard for the
// map-iteration bug: with ≥2 instances still open at experiment end, all
// closures land on the same timestamp and the cumulative curve appends one
// intermediate value per closure — random order emitted different series for
// the same run. Closures must happen in instance-name order regardless of
// how the intervals were opened.
func TestCloseAllSuspensionsDeterministic(t *testing.T) {
	// The open order must not matter: closures happen in instance-name
	// order, so the intermediate cumulative values are fully determined by
	// (name, open time), not by map iteration.
	durations := map[string]simtime.Time{"op[3]": 100, "op[11]": 150, "op[0]": 200, "op[7]": 250}
	curve := func(openOrder []string) []Point {
		m := NewScalingMetrics()
		for _, name := range openOrder {
			m.SuspendBegin(name, durations[name])
		}
		m.CloseAllSuspensions(1000)
		return append([]Point(nil), m.SuspensionCurve().Points()...)
	}
	a := curve([]string{"op[3]", "op[11]", "op[0]", "op[7]"})
	b := curve([]string{"op[7]", "op[0]", "op[11]", "op[3]"})
	if len(a) != 4 {
		t.Fatalf("curve length %d, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("open order leaked into the curve: %v vs %v", a, b)
		}
		if a[i].At != 1000 {
			t.Fatalf("closure %d at %v, want shared timestamp 1000", i, a[i].At)
		}
	}
	// Name-sorted closure: op[0] (800), op[11] (850), op[3] (900), op[7]
	// (750) → cumulative 800, 1650, 2550, 3300 ticks, in ms on the curve.
	want := []float64{
		simtime.Duration(800).Millis(),
		simtime.Duration(1650).Millis(),
		simtime.Duration(2550).Millis(),
		simtime.Duration(3300).Millis(),
	}
	for i, w := range want {
		if math.Abs(a[i].V-w) > 1e-12 {
			t.Fatalf("cumulative values %v, want %v (closure not name-sorted)", a, want)
		}
	}
}

func TestCounters(t *testing.T) {
	m := NewScalingMetrics()
	m.AddCounter("fetch", 2)
	m.AddCounter("fetch", 3)
	if m.Counter("fetch") != 5 {
		t.Fatalf("counter %d", m.Counter("fetch"))
	}
	if m.Counter("missing") != 0 {
		t.Fatal("missing counter should be zero")
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	m := NewScalingMetrics()
	if m.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestSuspensionNonNegativeProperty(t *testing.T) {
	// Property: any interleaving of begin/end over increasing times yields a
	// non-negative, monotone cumulative suspension.
	f := func(ops []bool) bool {
		m := NewScalingMetrics()
		at := simtime.Time(0)
		prev := simtime.Duration(0)
		for _, open := range ops {
			at = at.Add(10)
			if open {
				m.SuspendBegin("x", at)
			} else {
				m.SuspendEnd("x", at)
			}
			cur := m.CumulativeSuspension()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStabilizesSmoothed(t *testing.T) {
	l := NewLatencyTracker()
	// Raw samples with a heavy tail: one 100ms spike per second on a 10ms
	// baseline. The raw rule never stabilizes; the 1s-smoothed rule does.
	for i := 0; i < 30; i++ {
		base := simtime.Time(simtime.Sec(float64(i)))
		for j := 0; j < 9; j++ {
			ts := base.Add(simtime.Ms(float64(j * 100)))
			l.Observe(ts.Add(simtime.Ms(10)), ts)
		}
		spike := base.Add(simtime.Ms(950))
		l.Observe(spike.Add(simtime.Ms(30)), spike)
	}
	pre := 12.0 // per-second mean = (9*10+30)/10
	if _, ok := StabilizesOn(l.Series.Points(), 0, pre, 1.10, simtime.Sec(5)); ok {
		t.Fatal("raw rule should never stabilize with 30ms spikes against a 13.2 limit")
	}
	at, ok := StabilizesOn(l.Series.Downsample(simtime.Second), 0, pre, 1.10, simtime.Sec(5))
	if !ok {
		t.Fatalf("smoothed rule should stabilize (at %v)", at)
	}
}
