package policysearch

import (
	"fmt"
	"strings"

	"drrs/internal/bench"
	"drrs/internal/fitness"
)

// SearchConfig parameterizes the search figure.
type SearchConfig struct {
	// Scenario and Mechanism name the workload under search.
	Scenario  string
	Mechanism string
	// Seeds are the per-candidate evaluation seeds.
	Seeds []int64
	// Mode selects the sweep: "grid", "evolve", or "both" (grid first, then
	// the evolutionary sweep over the same space; fronts merge).
	Mode string
	// SearchSeed drives the evolutionary sweep's RNG stream.
	SearchSeed int64
	// Weights score candidates (zero = DefaultWeights); Space is the knob
	// menu (zero = DefaultSpace).
	Weights fitness.Weights
	Space   Space
}

func (cfg *SearchConfig) fillDefaults() {
	if cfg.Mechanism == "" {
		cfg.Mechanism = "drrs"
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}
	if cfg.Mode == "" {
		cfg.Mode = "both"
	}
	if cfg.SearchSeed == 0 {
		cfg.SearchSeed = 1
	}
	if cfg.Weights == (fitness.Weights{}) {
		cfg.Weights = fitness.DefaultWeights()
	}
	if len(cfg.Space.Policies) == 0 {
		cfg.Space = DefaultSpace()
	}
}

// Search runs the configured sweep(s) and renders the per-scenario Pareto
// front as a figure: one row per evaluated candidate (front members
// starred), with the fitness components filled into the machine-readable
// rows so -json artifacts carry the full objective data.
func Search(h bench.Harness, cfg SearchConfig) (bench.FigureResult, error) {
	cfg.fillDefaults()
	if cfg.Mode != "grid" && cfg.Mode != "evolve" && cfg.Mode != "both" {
		panic(fmt.Sprintf("policysearch: unknown search mode %q (grid | evolve | both)", cfg.Mode))
	}
	var all []Evaluated
	if cfg.Mode != "evolve" {
		evs, err := Evaluate(h, cfg.Scenario, cfg.Mechanism, cfg.Space.Grid(), cfg.Seeds, cfg.Weights)
		if err != nil {
			return bench.FigureResult{}, err
		}
		all = evs
	}
	if cfg.Mode != "grid" {
		evs, err := Evolve(h, EvolveConfig{
			Scenario: cfg.Scenario, Mechanism: cfg.Mechanism, Seeds: cfg.Seeds,
			SearchSeed: cfg.SearchSeed, Weights: cfg.Weights, Space: cfg.Space,
		})
		if err != nil {
			return bench.FigureResult{}, err
		}
		all = append(all, evs...)
	}
	front := Pareto(all)
	onFront := make(map[Candidate]bool, len(front))
	for _, e := range front {
		onFront[e.Candidate] = true
	}

	ranked := append([]Evaluated(nil), all...)
	sortEvaluated(ranked)
	var b strings.Builder
	fmt.Fprintf(&b, "Policy search (%s/%s, mode %s, %d candidates, seeds %v)\n",
		cfg.Scenario, cfg.Mechanism, cfg.Mode, len(all), cfg.Seeds)
	fmt.Fprintf(&b, "weights: SLO %.2f  migration/MB %.3f  instance-sec %.3f  oscillation %.2f\n",
		cfg.Weights.SLO, cfg.Weights.MigrationMB, cfg.Weights.InstanceSeconds, cfg.Weights.Oscillation)
	fmt.Fprintf(&b, "Pareto front: %d non-dominated configuration(s) (*)\n\n", len(front))
	fmt.Fprintf(&b, "  %-40s %10s %8s %10s %10s %6s\n",
		"candidate", "score", "SLO(s)", "mig(MB)", "inst-sec", "osc")
	rows := make(map[string]bench.Row, len(all))
	for _, e := range ranked {
		mark := " "
		if onFront[e.Candidate] {
			mark = "*"
		}
		c := e.Components
		fmt.Fprintf(&b, "%s %-40s %10.2f %8.0f %10.2f %10.0f %6.0f\n",
			mark, e.Candidate.Label(), e.Score, c.SLOViolations, c.MigrationMB, c.InstanceSeconds, c.Oscillations)
		rows[e.Candidate.Label()] = bench.Row{Fitness: fitnessRow(e, cfg.Weights)}
	}
	return bench.FigureResult{Title: "search/" + cfg.Scenario, Text: b.String(), Rows: rows}, nil
}

// fitnessRow spreads one candidate's per-seed fitness vectors into the
// figure-row stats (mean ± std across seeds).
func fitnessRow(e Evaluated, w fitness.Weights) *bench.FitnessStats {
	var slo, mig, inst, osc, score []float64
	for _, c := range e.PerSeed {
		slo = append(slo, c.SLOViolations)
		mig = append(mig, c.MigrationMB)
		inst = append(inst, c.InstanceSeconds)
		osc = append(osc, c.Oscillations)
		score = append(score, c.Score(w))
	}
	return &bench.FitnessStats{
		SLOViolations:   bench.NewStat(slo),
		MigrationMB:     bench.NewStat(mig),
		InstanceSeconds: bench.NewStat(inst),
		Oscillations:    bench.NewStat(osc),
		Score:           bench.NewStat(score),
	}
}
