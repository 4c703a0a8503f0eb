package policysearch

import (
	"drrs/internal/bench"
	"drrs/internal/simtime"
)

// EvolveConfig parameterizes an evolutionary sweep.
type EvolveConfig struct {
	// Scenario and Mechanism name the workload under search.
	Scenario  string
	Mechanism string
	// Seeds are the per-candidate evaluation seeds (each candidate runs once
	// per seed; fitness is the mean).
	Seeds []int64
	// SearchSeed drives all evolutionary randomness through the named stream
	// "policysearch/<scenario>": a (scenario, search-seed) tuple fully
	// determines the sweep.
	SearchSeed int64
	// Population and Generations size the sweep (defaults 8 × 3). Every
	// candidate across all generations is evaluated at most once — mutation
	// that lands on a seen candidate re-rolls.
	Population  int
	Generations int
	// Space is the knob menu mutations move along (default DefaultSpace).
	Space Space
}

func (cfg *EvolveConfig) fillDefaults() {
	if cfg.Mechanism == "" {
		cfg.Mechanism = "drrs"
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}
	if cfg.Population == 0 {
		cfg.Population = 8
	}
	if cfg.Generations == 0 {
		cfg.Generations = 3
	}
	if len(cfg.Space.Policies) == 0 {
		cfg.Space = DefaultSpace()
	}
}

// Evolve runs a mutation-only evolutionary sweep: a seeded random population,
// then per generation an elite selection (best half by score over everything
// evaluated so far) whose mutated offspring form the next population. It
// returns every candidate evaluated, across all generations — callers take
// Pareto of the result for the front, so non-elite trade-offs survive.
//
// Duplicate work is structurally impossible: the seen-set rejects any
// mutation that lands on an already-evaluated candidate, and a sweep whose
// space is exhausted simply stops early.
func Evolve(h bench.Harness, cfg EvolveConfig) ([]Evaluated, error) {
	cfg.fillDefaults()
	rng := simtime.NewRNG(cfg.SearchSeed, "policysearch/"+cfg.Scenario)
	seen := make(map[Candidate]bool)
	fill := func(dst []Candidate, propose func() Candidate) []Candidate {
		// Bounded rejection sampling: a small or nearly-exhausted space stops
		// producing fresh candidates long before the attempt budget.
		for attempts := 0; len(dst) < cfg.Population && attempts < cfg.Population*64; attempts++ {
			c := propose()
			if !seen[c] {
				seen[c] = true
				dst = append(dst, c)
			}
		}
		return dst
	}

	pop := fill(nil, func() Candidate { return randomCandidate(rng, cfg.Space) })
	var all []Evaluated
	for gen := 0; gen < cfg.Generations && len(pop) > 0; gen++ {
		evs, err := Evaluate(h, cfg.Scenario, cfg.Mechanism, pop, cfg.Seeds)
		if err != nil {
			return nil, err
		}
		all = append(all, evs...)
		if gen == cfg.Generations-1 {
			break
		}
		// Elites: best half of everything evaluated so far, by score.
		elite := append([]Evaluated(nil), all...)
		sortEvaluated(elite)
		n := len(elite) / 2
		if n < 2 {
			n = len(elite)
		}
		elite = elite[:n]
		pop = fill(nil, func() Candidate {
			return mutate(rng, elite[rng.IntN(len(elite))].Candidate, cfg.Space)
		})
	}
	return all, nil
}

// randomCandidate draws one point uniformly from the space's menus, zeroing
// knobs the drawn policy ignores so the seen-set treats dead-knob variants
// as the same candidate.
func randomCandidate(rng *simtime.RNG, s Space) Candidate {
	pol := s.Policies[rng.IntN(len(s.Policies))]
	pats, hors, bounds := s.axes(pol)
	b := bounds[rng.IntN(len(bounds))]
	return Candidate{
		Policy:   pol,
		Cadence:  s.Cadences[rng.IntN(len(s.Cadences))],
		Debounce: s.Debounces[rng.IntN(len(s.Debounces))],
		Patience: pats[rng.IntN(len(pats))],
		Horizon:  hors[rng.IntN(len(hors))],
		Min:      b[0],
		Max:      b[1],
	}
}

// mutate moves one knob of the parent to a different menu value. Mutating
// the policy re-resolves the dead-knob axes (a threshold child drops the
// parent's patience; a predictive child draws a horizon).
func mutate(rng *simtime.RNG, parent Candidate, s Space) Candidate {
	c := parent
	switch rng.IntN(5) {
	case 0:
		c.Policy = pick(rng, s.Policies, c.Policy)
	case 1:
		c.Cadence = pick(rng, s.Cadences, c.Cadence)
	case 2:
		c.Debounce = pick(rng, s.Debounces, c.Debounce)
	case 3:
		pats, _, _ := s.axes(c.Policy)
		c.Patience = pick(rng, pats, c.Patience)
	case 4:
		_, hors, _ := s.axes(c.Policy)
		c.Horizon = pick(rng, hors, c.Horizon)
	}
	// Re-normalize dead knobs after a policy flip.
	pats, hors, _ := s.axes(c.Policy)
	if len(pats) == 1 && pats[0] == 0 {
		c.Patience = 0
	} else if c.Patience == 0 {
		c.Patience = pats[rng.IntN(len(pats))]
	}
	if len(hors) == 1 && hors[0] == 0 {
		c.Horizon = 0
	} else if c.Horizon == 0 {
		c.Horizon = hors[rng.IntN(len(hors))]
	}
	return c
}

// pick draws a menu value different from cur when the menu has one; a
// single-entry menu returns its only value.
func pick[T comparable](rng *simtime.RNG, menu []T, cur T) T {
	if len(menu) == 1 {
		return menu[0]
	}
	for {
		if v := menu[rng.IntN(len(menu))]; v != cur {
			return v
		}
	}
}
