// Package policysearch searches the scaling-policy knob space offline: grid
// and evolutionary sweeps fan candidate controller configurations over the
// parallel run harness, score each candidate's runs with the multi-objective
// fitness package, and report the per-scenario Pareto front — the repo's
// first subsystem whose output is a policy rather than a measurement.
//
// Everything is deterministic: candidate enumeration is ordered, evaluation
// rides bench.RunParallel (bit-for-bit identical at any worker count), and
// all evolutionary randomness draws from one named simtime RNG stream, so a
// (scenario, search-seed) tuple fully determines the sweep.
package policysearch

import (
	"fmt"
	"sort"

	"drrs/internal/bench"
	"drrs/internal/fitness"
	"drrs/internal/simtime"
)

// Candidate is one point in the policy knob space: which policy runs the
// loop and how its controller is tuned. Zero-valued knobs keep the
// controller/policy defaults, so the zero Candidate with only Policy set is
// the stock configuration.
type Candidate struct {
	// Policy names a registered control policy.
	Policy string
	// Cadence is the controller's sampling period; Debounce the minimum
	// spacing between accepted decisions.
	Cadence  simtime.Duration
	Debounce simtime.Duration
	// Patience is the policy's scale-in hysteresis (samples that must agree
	// before shrinking); ignored by threshold, which has no such counter.
	Patience int
	// Horizon is the predictive policy's projection distance; ignored by the
	// reactive policies.
	Horizon simtime.Duration
	// Min and Max clamp the reachable parallelism (0 = scenario default).
	Min, Max int
}

// Label renders the candidate compactly for tables and artifacts, omitting
// knobs the policy ignores.
func (c Candidate) Label() string {
	s := fmt.Sprintf("%s/c%gms/d%gms", c.Policy, c.Cadence.Millis(), c.Debounce.Millis())
	if c.Patience > 0 && c.Policy != "threshold" {
		s += fmt.Sprintf("/p%d", c.Patience)
	}
	if c.Horizon > 0 && c.Policy == "predictive" {
		s += fmt.Sprintf("/h%gms", c.Horizon.Millis())
	}
	if c.Min > 0 || c.Max > 0 {
		s += fmt.Sprintf("/[%d..%d]", c.Min, c.Max)
	}
	return s
}

// Apply returns a copy of the scenario driven by this candidate's controller
// configuration. A scenario that already runs a ControllerDriver keeps its
// calibration (degraded-mode debounce); scripted scenarios get a fresh
// driver, closing the loop the candidate describes.
func (c Candidate) Apply(sc bench.Scenario) bench.Scenario {
	d := &bench.ControllerDriver{}
	if sc.Driver != nil {
		clone := *sc.Driver
		d = &clone
	}
	d.Policy = c.Policy
	d.Cadence = c.Cadence
	d.Debounce = c.Debounce
	d.Patience = c.Patience
	d.Horizon = c.Horizon
	if c.Min > 0 {
		d.Min = c.Min
	}
	if c.Max > 0 {
		d.Max = c.Max
	}
	sc.Driver = d
	return sc
}

// Space is the searchable knob menu. Grid takes its cartesian product;
// Evolve mutates along its axes. Menus are value lists rather than ranges so
// both search modes agree on what "adjacent" means.
type Space struct {
	Policies  []string
	Cadences  []simtime.Duration
	Debounces []simtime.Duration
	Patiences []int
	Horizons  []simtime.Duration
	// Bounds lists [min, max] clamp pairs; {0, 0} keeps scenario defaults.
	Bounds [][2]int
}

// DefaultSpace brackets each controller default (cadence 500 ms, debounce
// 2 s, patience 3–4, horizon 3 s) with one faster and one slower setting —
// 63 grid candidates over the three policies.
func DefaultSpace() Space {
	return Space{
		Policies:  []string{"backlog", "predictive", "threshold"},
		Cadences:  []simtime.Duration{250 * simtime.Millisecond, 500 * simtime.Millisecond, simtime.Second},
		Debounces: []simtime.Duration{simtime.Second, 2 * simtime.Second, 4 * simtime.Second},
		Patiences: []int{2, 4, 6},
		Horizons:  []simtime.Duration{2 * simtime.Second, 3 * simtime.Second, 5 * simtime.Second},
	}
}

// SmokeSpace is the CI-sized grid: two reactive policies, two cadences, two
// debounces — 10 candidates, small enough to sweep inside a smoke-job budget
// while still producing a non-trivial front.
func SmokeSpace() Space {
	return Space{
		Policies:  []string{"backlog", "predictive"},
		Cadences:  []simtime.Duration{500 * simtime.Millisecond, simtime.Second},
		Debounces: []simtime.Duration{simtime.Second, 2 * simtime.Second},
		Patiences: []int{4},
		Horizons:  []simtime.Duration{3 * simtime.Second},
	}
}

// axes resolves the menus that apply to one policy: knobs a policy ignores
// collapse to a single zero entry so the grid never enumerates candidates
// that differ only in a dead knob (they would evaluate identically and
// crowd the front with duplicates).
func (s Space) axes(policy string) (pats []int, hors []simtime.Duration, bounds [][2]int) {
	pats = s.Patiences
	if policy == "threshold" || len(pats) == 0 {
		pats = []int{0}
	}
	hors = s.Horizons
	if policy != "predictive" || len(hors) == 0 {
		hors = []simtime.Duration{0}
	}
	bounds = s.Bounds
	if len(bounds) == 0 {
		bounds = [][2]int{{0, 0}}
	}
	return pats, hors, bounds
}

// Grid enumerates the space's cartesian product in deterministic order.
func (s Space) Grid() []Candidate {
	var out []Candidate
	for _, pol := range s.Policies {
		pats, hors, bounds := s.axes(pol)
		for _, cad := range s.Cadences {
			for _, deb := range s.Debounces {
				for _, pat := range pats {
					for _, hor := range hors {
						for _, b := range bounds {
							out = append(out, Candidate{
								Policy: pol, Cadence: cad, Debounce: deb,
								Patience: pat, Horizon: hor, Min: b[0], Max: b[1],
							})
						}
					}
				}
			}
		}
	}
	return out
}

// Evaluated is one candidate's measured fitness: the per-seed objective
// vectors, their mean, and the weighted scalar score.
type Evaluated struct {
	Candidate Candidate
	// PerSeed holds one objective vector per evaluation seed, in seed order.
	PerSeed []fitness.Components
	// Components is the per-seed mean — the vector dominance compares.
	Components fitness.Components
	// Score is Components.Score under fitness.DefaultWeights (lower is
	// better).
	Score float64
}

// Evaluate runs every (candidate × seed) cell over the harness and reduces
// each candidate to its mean objective vector. Results are in candidate order
// regardless of worker count.
func Evaluate(h bench.Harness, scenario, mech string, cands []Candidate, seeds []int64) ([]Evaluated, error) {
	w := fitness.DefaultWeights()
	specs := make([]bench.RunSpec, 0, len(cands)*len(seeds))
	for _, c := range cands {
		for _, seed := range seeds {
			sc, err := h.Scenario(scenario, seed)
			if err != nil {
				return nil, err
			}
			specs = append(specs, bench.RunSpec{Scenario: c.Apply(sc), Mechanism: mech})
		}
	}
	outs := bench.RunParallel(specs, h.Workers)
	evs := make([]Evaluated, len(cands))
	for i, c := range cands {
		runs := outs[i*len(seeds) : (i+1)*len(seeds)]
		per := make([]fitness.Components, len(seeds))
		for j := range runs {
			per[j] = runs[j].Fitness()
		}
		mean := fitness.Mean(per)
		evs[i] = Evaluated{Candidate: c, PerSeed: per, Components: mean, Score: mean.Score(w)}
	}
	return evs, nil
}

// Pareto returns the non-dominated evaluated candidates (by mean objective
// vector), sorted by score so the cheapest compromise leads the front.
func Pareto(evs []Evaluated) []Evaluated {
	comps := make([]fitness.Components, len(evs))
	for i := range evs {
		comps[i] = evs[i].Components
	}
	var front []Evaluated
	for _, i := range fitness.Front(comps) {
		front = append(front, evs[i])
	}
	sortEvaluated(front)
	return front
}

// sortEvaluated orders by score, breaking ties on the label so equal-scored
// candidates list deterministically.
func sortEvaluated(evs []Evaluated) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Score != evs[j].Score {
			return evs[i].Score < evs[j].Score
		}
		return evs[i].Candidate.Label() < evs[j].Candidate.Label()
	})
}
