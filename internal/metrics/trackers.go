package metrics

import (
	"math"
	"sort"

	"drrs/internal/simtime"
)

// LatencyTracker records end-to-end latencies of latency markers as they
// reach the sink, mirroring the paper's measurement methodology (markers flow
// through the system as regular records and bypass windowing).
type LatencyTracker struct {
	Series *Series
}

// NewLatencyTracker returns an empty tracker.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{Series: NewSeries("latency_ms")}
}

// Observe records that a marker emitted at emit arrived at the sink at now.
func (l *LatencyTracker) Observe(now, emit simtime.Time) {
	l.Series.Append(now, now.Sub(emit).Millis())
}

// PeakIn returns the maximum latency in [from, to) in milliseconds (0 for an
// empty window).
func (l *LatencyTracker) PeakIn(from, to simtime.Time) float64 {
	pts := l.Series.Slice(from, to)
	if len(pts) == 0 {
		return 0
	}
	peak := math.Inf(-1)
	for _, p := range pts {
		if p.V > peak {
			peak = p.V
		}
	}
	return peak
}

// AvgIn returns the mean latency in [from, to) in milliseconds (0 for an
// empty window).
func (l *LatencyTracker) AvgIn(from, to simtime.Time) float64 {
	pts := l.Series.Slice(from, to)
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}

// StabilizesOn implements the paper's scaling-period rule over a sample
// sequence: the scaling period ends at the first instant t >= start such that
// every sample in [t, t+hold) stays within tolerance× the pre-scaling level.
// It returns the end of the scaling period and whether stabilization was
// observed before the samples ran out (samples that never stabilize report
// the last sample time, false).
//
// The paper uses tolerance = 1.10 and hold = 100 s, on the bucket-averaged
// latency curve (Series.Downsample): its latency plots, and therefore its
// stabilization reading, are per-interval averages, and raw markers have a
// heavy tail even in steady state.
func StabilizesOn(pts []Point, start simtime.Time, preLevel float64, tolerance float64, hold simtime.Duration) (simtime.Time, bool) {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].At >= start })
	limit := preLevel * tolerance
	for ; i < len(pts); i++ {
		if pts[i].V > limit {
			continue
		}
		// candidate window start: all samples in [pts[i].At, +hold) must hold
		end := pts[i].At.Add(hold)
		ok := true
		j := i
		for ; j < len(pts) && pts[j].At < end; j++ {
			if pts[j].V > limit {
				ok = false
				break
			}
		}
		if ok && (j >= len(pts) || pts[j].At >= end) {
			if j >= len(pts) && (len(pts) == 0 || pts[len(pts)-1].At < end) {
				// Series ended before the hold window completed: inconclusive,
				// but accept if the window start plus hold is past series end
				// and everything seen held.
				return pts[i].At, true
			}
			return pts[i].At, true
		}
		i = j // skip past the violating sample
	}
	if len(pts) == 0 {
		return start, false
	}
	return pts[len(pts)-1].At, false
}

// ThroughputTracker counts source emissions into fixed buckets and exposes a
// records/second series, matching the paper's "output rate of the source
// operators" metric.
type ThroughputTracker struct {
	Bucket simtime.Duration
	// counts[b] is the records observed in bucket b, the span
	// [b*Bucket, (b+1)*Bucket); the slice ends at the last bucket observed.
	counts []int64
	minB   int64 // the first bucket observed
}

// NewThroughputTracker returns a tracker with the given bucket width
// (the paper plots per-second throughput).
func NewThroughputTracker(bucket simtime.Duration) *ThroughputTracker {
	return &ThroughputTracker{Bucket: bucket}
}

// Observe counts n records emitted at time now.
func (t *ThroughputTracker) Observe(now simtime.Time, n int64) {
	b := int64(now) / int64(t.Bucket)
	if len(t.counts) == 0 || b < t.minB {
		t.minB = b
	}
	if grow := b + 1 - int64(len(t.counts)); grow > 0 {
		t.counts = append(t.counts, make([]int64, grow)...)
	}
	t.counts[b] += n
}

// Series materializes the per-bucket rate series in records/second, with
// zero-filled gaps so stalls are visible.
func (t *ThroughputTracker) Series() *Series {
	s := NewSeries("throughput_rps")
	if len(t.counts) == 0 {
		return s
	}
	perSec := float64(simtime.Second) / float64(t.Bucket)
	for b := t.minB; b < int64(len(t.counts)); b++ {
		s.Append(simtime.Time(b*int64(t.Bucket)), float64(t.counts[b])*perSec)
	}
	return s
}

// RateIn reports the mean emission rate (records/s) over [from, to),
// measured on the buckets fully contained in the window — a partially
// elapsed trailing bucket divided by the full bucket width would read
// systematically low on mid-bucket samples, sawtoothing any controller that
// polls off the bucket grid. Windows narrower than one full bucket fall
// back to whole-overlapping-bucket averaging. Negative from clamps to zero
// (early-run sampling windows reach before the origin). An empty tracker
// reports 0.
func (t *ThroughputTracker) RateIn(from, to simtime.Time) float64 {
	if from < 0 {
		from = 0
	}
	if to <= from {
		return 0
	}
	// First and last bucket indices fully inside [from, to).
	b0 := (int64(from) + int64(t.Bucket) - 1) / int64(t.Bucket)
	b1 := int64(to)/int64(t.Bucket) - 1
	if b1 < b0 {
		// Sub-bucket window: average over every overlapping bucket.
		b0 = int64(from) / int64(t.Bucket)
		b1 = (int64(to) - 1) / int64(t.Bucket)
	}
	var sum int64
	for b := b0; b <= min(b1, int64(len(t.counts))-1); b++ {
		sum += t.counts[b] // buckets past the last observed one read as 0
	}
	seconds := float64(b1-b0+1) * float64(t.Bucket) / float64(simtime.Second)
	return float64(sum) / seconds
}

// Total reports the total records observed.
func (t *ThroughputTracker) Total() int64 {
	var sum int64
	for _, c := range t.counts {
		sum += c
	}
	return sum
}

// DeviationFrom computes the paper's Fig 15 metric: the mean shortfall of the
// measured rate below the target input rate over [from, to), in records/s.
// Overshoot (catch-up flushes) does not offset shortfall; the paper's metric
// penalizes time spent below the offered load.
func (t *ThroughputTracker) DeviationFrom(target float64, from, to simtime.Time) float64 {
	s := t.Series()
	pts := s.Slice(from, to)
	if len(pts) == 0 {
		return target
	}
	var dev float64
	for _, p := range pts {
		if p.V < target {
			dev += target - p.V
		}
	}
	return dev / float64(len(pts))
}
