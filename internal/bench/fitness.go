package bench

import (
	"drrs/internal/fitness"
	"drrs/internal/simtime"
)

// instanceSeconds integrates the scaled operator's deployed parallelism over
// the run clock from the wave timeline: p0 instances until the first launched
// wave, max(previous, target) while an operation is in flight (scale-out
// deploys its new instances up front; scale-in keeps the old ones busy until
// migration drains), and the wave's target once it completes. An incomplete
// final wave stays at its in-flight level to the end of the run.
func instanceSeconds(p0 int, waves []WaveOutcome, end simtime.Time) float64 {
	cur := p0
	var t simtime.Time
	var total float64
	for i := range waves {
		w := &waves[i]
		if w.Scale == nil {
			// Never launched (scripted program outran the horizon).
			continue
		}
		if w.ScaleAt > t {
			total += float64(float64(cur) * w.ScaleAt.Sub(t).Seconds())
			t = w.ScaleAt
		}
		alive := cur
		if w.Wave.NewParallelism > alive {
			alive = w.Wave.NewParallelism
		}
		stop := end
		if w.Done && w.DoneAt < end {
			stop = w.DoneAt
		}
		if stop > t {
			total += float64(float64(alive) * stop.Sub(t).Seconds())
			t = stop
		}
		if w.Done {
			cur = w.Wave.NewParallelism
		} else {
			cur = alive
		}
	}
	if end > t {
		total += float64(float64(cur) * end.Sub(t).Seconds())
	}
	return total
}

// FitnessInput adapts the outcome to the fitness package's neutral Input:
// the whole run is scored (warmup buckets sit at the baseline, so they never
// violate), against the warmup latency level the stabilization rule already
// uses.
func (o Outcome) FitnessInput() fitness.Input {
	in := fitness.Input{
		PreAvgMs:         o.PreAvgMs,
		From:             0,
		To:               o.EndAt,
		Decisions:        o.Decisions,
		TransferredBytes: o.TransferredBytes,
		InstanceSeconds:  o.InstanceSeconds,
	}
	if o.Latency != nil {
		in.Latency = o.Latency.Series
	}
	return in
}

// Fitness measures the run's objective vector.
func (o Outcome) Fitness() fitness.Components { return fitness.Measure(o.FitnessInput()) }

// FitnessStats aggregates per-run fitness components across seeds — the
// figure rows' machine-readable fitness columns (drrs-bench -json), so a
// search artifact carries its own objective values.
type FitnessStats struct {
	SLOViolations   Stat
	MigrationMB     Stat
	InstanceSeconds Stat
	Oscillations    Stat
	// Score is the weighted scalar under fitness.DefaultWeights.
	Score Stat
}

// fitnessStats aggregates runs' fitness vectors.
func fitnessStats(runs []Outcome) *FitnessStats {
	if len(runs) == 0 {
		return nil
	}
	cs := make([]fitness.Components, len(runs))
	for i := range runs {
		cs[i] = runs[i].Fitness()
	}
	return NewFitnessStats(cs)
}

// NewFitnessStats aggregates per-run fitness vectors (mean ± std across
// runs), scoring each under fitness.DefaultWeights.
func NewFitnessStats(cs []fitness.Components) *FitnessStats {
	w := fitness.DefaultWeights()
	var slo, mig, inst, osc, score []float64
	for _, c := range cs {
		slo = append(slo, c.SLOViolations)
		mig = append(mig, c.MigrationMB)
		inst = append(inst, c.InstanceSeconds)
		osc = append(osc, c.Oscillations)
		score = append(score, c.Score(w))
	}
	return &FitnessStats{
		SLOViolations:   NewStat(slo),
		MigrationMB:     NewStat(mig),
		InstanceSeconds: NewStat(inst),
		Oscillations:    NewStat(osc),
		Score:           NewStat(score),
	}
}
