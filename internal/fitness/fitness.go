// Package fitness scores a rescaling run against multiple objectives: how
// badly latency violated its SLO, how many bytes the mechanisms migrated, how
// much capacity the policy kept deployed, and how often it flapped. One run
// reduces to a Components vector; a Weights vector collapses it to a scalar
// Score for ranking, and Dominates/Front compare runs without committing to
// any weighting at all — the Pareto view the policy search reports.
//
// The package deliberately does not import the bench harness: it consumes a
// neutral Input assembled by the caller (bench provides an Outcome adapter),
// so fitness math is testable against hand-built series and decision lists.
package fitness

import (
	"fmt"

	"drrs/internal/control"
	"drrs/internal/metrics"
	"drrs/internal/simtime"
)

// Input is everything one run contributes to its fitness, in harness-neutral
// form.
type Input struct {
	// Latency is the per-marker latency series (ms). SLO violations are
	// counted over its sloBucket-averaged timeline inside [From, To].
	Latency *metrics.Series
	// PreAvgMs is the pre-disturbance latency baseline; the SLO threshold is
	// sloFactor times it. A non-positive baseline disables SLO counting (a
	// run with no pre-window has nothing to hold the latency against).
	PreAvgMs float64
	// From and To bound the scored window (typically the measurement window).
	From, To simtime.Time
	// Decisions is the controller's audit trail; oscillations are counted
	// over its launched, non-recovery entries.
	Decisions []control.Decision
	// TransferredBytes is the run's total migration traffic.
	TransferredBytes int64
	// InstanceSeconds is deployed capacity integrated over the run clock.
	InstanceSeconds float64
}

// The SLO: buckets of sloBucket whose average latency is more than 10 %
// over the baseline violate.
const (
	sloFactor = 1.10
	sloBucket = simtime.Second
)

// Components is one run's objective vector. Every component is a cost —
// lower is better on all axes — which is what makes weighted sums and
// Pareto dominance well-defined without per-field sign rules.
type Components struct {
	// SLOViolations counts one-second-averaged latency windows above
	// 1.10×PreAvgMs inside the scored window.
	SLOViolations float64
	// MigrationMB is migration traffic in megabytes (1e6 bytes).
	MigrationMB float64
	// InstanceSeconds is deployed capacity integrated over the run clock —
	// the provisioning-cost axis.
	InstanceSeconds float64
	// Oscillations counts direction reversals between consecutive launched
	// scaling operations (scale-out followed by scale-in or vice versa) —
	// each reversal is state moved twice for nothing.
	Oscillations float64
}

// vector flattens the components in a fixed axis order for dominance and
// scoring loops.
func (c Components) vector() [4]float64 {
	return [4]float64{c.SLOViolations, c.MigrationMB, c.InstanceSeconds, c.Oscillations}
}

// Weights scales each objective's contribution to the scalar Score. All
// weights are per-unit-of-component; relative magnitude is what matters.
type Weights struct {
	SLO             float64
	MigrationMB     float64
	InstanceSeconds float64
	Oscillation     float64
}

// DefaultWeights balances the axes for the bundled scenarios: an SLO
// violation (one bad second) costs as much as ~20 MB of migration traffic or
// ~100 instance-seconds, and an oscillation — pure waste — costs five bad
// seconds.
func DefaultWeights() Weights {
	return Weights{SLO: 1, MigrationMB: 0.05, InstanceSeconds: 0.01, Oscillation: 5}
}

// Validate panics on a meaningless weighting: a negative weight would reward
// a cost, and all-zero weights score every run 0. Panicking mirrors the
// registry contracts elsewhere in the repo — a bad weighting is a harness
// bug, not a run-time condition.
func (w Weights) Validate() {
	if w.SLO < 0 || w.MigrationMB < 0 || w.InstanceSeconds < 0 || w.Oscillation < 0 {
		panic(fmt.Sprintf("fitness: negative weight in %+v — a negative weight rewards a cost", w))
	}
	if w.SLO == 0 && w.MigrationMB == 0 && w.InstanceSeconds == 0 && w.Oscillation == 0 {
		panic("fitness: all weights zero — every run would score 0")
	}
}

// Score collapses the components to a weighted scalar cost; lower is better.
func (c Components) Score(w Weights) float64 {
	w.Validate()
	return float64(w.SLO*c.SLOViolations) +
		float64(w.MigrationMB*c.MigrationMB) +
		float64(w.InstanceSeconds*c.InstanceSeconds) +
		float64(w.Oscillation*c.Oscillations)
}

// Measure reduces one run to its objective vector.
func Measure(in Input) Components {
	return Components{
		SLOViolations:   float64(sloViolations(in)),
		MigrationMB:     float64(in.TransferredBytes) / 1e6,
		InstanceSeconds: in.InstanceSeconds,
		Oscillations:    float64(Oscillations(in.Decisions)),
	}
}

// sloViolations buckets the latency samples inside [From, To] and counts
// buckets whose average exceeds the SLO threshold. Bucketing (rather than
// counting raw markers) keeps the count comparable across runs with
// different marker cadences: the unit is "bad seconds", not "bad markers".
func sloViolations(in Input) int {
	if in.Latency == nil || in.PreAvgMs <= 0 {
		return 0
	}
	slo := sloFactor * in.PreAvgMs
	pts := in.Latency.Slice(in.From, in.To)
	if len(pts) == 0 {
		return 0
	}
	violations := 0
	start := pts[0].At
	var sum float64
	var n int
	var cur simtime.Time = start
	flush := func() {
		if n > 0 && sum/float64(n) > slo {
			violations++
		}
		sum, n = 0, 0
	}
	for _, p := range pts {
		b := start.Add(simtime.Duration(int64(p.At.Sub(start))/int64(sloBucket)) * sloBucket)
		if b != cur {
			flush()
			cur = b
		}
		sum += p.V
		n++
	}
	flush()
	return violations
}

// Oscillations counts direction reversals in the launched decision history.
// Recovery supersessions re-plan the same target around a fault — involuntary
// and directionless — so they are excluded; unlaunched decisions moved no
// state, so they cost nothing here (their churn shows up in latency instead).
func Oscillations(ds []control.Decision) int {
	flips, prev := 0, 0
	for _, d := range ds {
		if !d.Launched || d.Recovery || d.To == d.From {
			continue
		}
		dir := 1
		if d.To < d.From {
			dir = -1
		}
		if prev != 0 && dir != prev {
			flips++
		}
		prev = dir
	}
	return flips
}

// Mean averages component vectors axis by axis — the per-candidate reduction
// over seeds a search uses before comparing candidates. Empty input yields
// the zero vector.
func Mean(cs []Components) Components {
	if len(cs) == 0 {
		return Components{}
	}
	var m Components
	for _, c := range cs {
		m.SLOViolations += c.SLOViolations
		m.MigrationMB += c.MigrationMB
		m.InstanceSeconds += c.InstanceSeconds
		m.Oscillations += c.Oscillations
	}
	n := float64(len(cs))
	m.SLOViolations /= n
	m.MigrationMB /= n
	m.InstanceSeconds /= n
	m.Oscillations /= n
	return m
}

// Dominates reports a Pareto-dominates b: no worse on every axis and
// strictly better on at least one. Equal vectors dominate in neither
// direction, so duplicates coexist on a front.
func Dominates(a, b Components) bool {
	av, bv := a.vector(), b.vector()
	strict := false
	for i := range av {
		if av[i] > bv[i] {
			return false
		}
		if av[i] < bv[i] {
			strict = true
		}
	}
	return strict
}

// Front returns the indices (in input order) of the non-dominated elements —
// the Pareto front. An empty input yields an empty front.
func Front(cs []Components) []int {
	var front []int
	for i, c := range cs {
		dominated := false
		for j, o := range cs {
			if i != j && Dominates(o, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}
