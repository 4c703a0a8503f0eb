// Package metrics collects the measurements the paper's evaluation is built
// on: end-to-end latency and throughput time series, cumulative suspension
// time, propagation delay, and dependency-related overhead, plus the paper's
// scaling-period detection rule (latency within 110% of the pre-scaling level
// for a sustained interval).
package metrics

import (
	"fmt"
	"sort"

	"drrs/internal/simtime"
)

// Point is one sample of a time series.
type Point struct {
	At simtime.Time
	V  float64
}

// Series is an append-only time series. Samples must be appended in
// non-decreasing time order.
type Series struct {
	Name string
	pts  []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Append adds a sample. It panics if time goes backwards, which always
// indicates a simulation bug.
func (s *Series) Append(at simtime.Time, v float64) {
	if n := len(s.pts); n > 0 && at < s.pts[n-1].At {
		panic(fmt.Sprintf("metrics: series %q sample at %v before %v", s.Name, at, s.pts[n-1].At))
	}
	s.pts = append(s.pts, Point{At: at, V: v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.pts) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.pts[i] }

// Points returns the underlying samples. Callers must not mutate the slice.
func (s *Series) Points() []Point { return s.pts }

// Slice returns the samples with from <= t < to.
func (s *Series) Slice(from, to simtime.Time) []Point {
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].At >= from })
	hi := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].At >= to })
	return s.pts[lo:hi]
}

// Downsample buckets the series into fixed windows and returns one averaged
// point per non-empty bucket — used by the figure reporters to print compact
// timelines.
func (s *Series) Downsample(bucket simtime.Duration) []Point {
	if len(s.pts) == 0 || bucket <= 0 {
		return nil
	}
	var out []Point
	start := s.pts[0].At
	var sum float64
	var n int
	var curBucket simtime.Time = start
	flush := func() {
		if n > 0 {
			out = append(out, Point{At: curBucket, V: sum / float64(n)})
		}
		sum, n = 0, 0
	}
	for _, p := range s.pts {
		b := start.Add(simtime.Duration(int64(p.At.Sub(start))/int64(bucket)) * bucket)
		if b != curBucket {
			flush()
			curBucket = b
		}
		sum += p.V
		n++
	}
	flush()
	return out
}
