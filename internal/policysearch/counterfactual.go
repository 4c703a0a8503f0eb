package policysearch

import (
	"fmt"
	"strings"

	"drrs/internal/bench"
	"drrs/internal/control"
	"drrs/internal/fitness"
)

// Counterfactual pairs a baseline run with its forced re-execution.
type Counterfactual struct {
	Scenario  string
	Mechanism string
	Seed      int64
	Spec      []control.Intervention
	Base      bench.Outcome
	Forced    bench.Outcome
}

// RunCounterfactual re-executes one seeded scenario twice — unforced, then
// with the interventions applied — over the harness. Both runs share the
// seed and every RNG stream, so the outcome diff is attributable to the
// forced forks alone.
func RunCounterfactual(h bench.Harness, scenario, mech string, seed int64, ivs []control.Intervention) (Counterfactual, error) {
	sc, err := h.Scenario(scenario, seed)
	if err != nil {
		return Counterfactual{}, err
	}
	forced, err := sc.WithInterventions(ivs)
	if err != nil {
		return Counterfactual{}, err
	}
	outs := bench.RunParallel([]bench.RunSpec{
		{Scenario: sc, Mechanism: mech},
		{Scenario: forced, Mechanism: mech},
	}, h.Workers)
	return Counterfactual{
		Scenario: scenario, Mechanism: mech, Seed: seed, Spec: ivs,
		Base: outs[0], Forced: outs[1],
	}, nil
}

// FormatDiff renders the side-by-side outcome diff: headline metrics and
// fitness components for both runs, then each run's decision audit trail
// with the forced forks marked.
func (cf Counterfactual) FormatDiff() string {
	var specs []string
	for _, iv := range cf.Spec {
		specs = append(specs, iv.String())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "counterfactual %q — %s/%s seed %d\n",
		strings.Join(specs, ";"), cf.Scenario, cf.Mechanism, cf.Seed)
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "", "baseline", "forced", "delta")

	base, forced := cf.Base, cf.Forced
	bc, fc := base.Fitness(), forced.Fitness()
	w := fitness.DefaultWeights()
	num := func(label string, bv, fv float64) {
		fmt.Fprintf(&b, "%-24s %14.2f %14.2f %+14.2f\n", label, bv, fv, fv-bv)
	}
	num("peak latency (ms)", base.PeakIn(0, base.EndAt), forced.PeakIn(0, forced.EndAt))
	num("avg latency (ms)", base.AvgIn(0, base.EndAt), forced.AvgIn(0, forced.EndAt))
	num("SLO violations (s)", bc.SLOViolations, fc.SLOViolations)
	num("migration (MB)", bc.MigrationMB, fc.MigrationMB)
	num("instance-seconds", bc.InstanceSeconds, fc.InstanceSeconds)
	num("oscillations", bc.Oscillations, fc.Oscillations)
	num("fitness score", bc.Score(w), fc.Score(w))
	num("decisions", float64(len(base.Decisions)), float64(len(forced.Decisions)))
	num("operations launched", float64(len(base.Waves)), float64(len(forced.Waves)))
	fmt.Fprintf(&b, "%-24s %14d %14d\n", "final parallelism",
		bench.FinalParallelism(base), bench.FinalParallelism(forced))

	b.WriteString("\nbaseline decisions:\n")
	b.WriteString(bench.FormatDecisions(base))
	b.WriteString("forced decisions:\n")
	b.WriteString(bench.FormatDecisions(forced))
	return b.String()
}
