package chaos

import (
	"fmt"

	"drrs/internal/bench"
	"drrs/internal/faults"
	"drrs/internal/simtime"
)

// Config bounds one chaos search. Zero values fall back to the CI defaults:
// the three chaos scenarios, the three paper mechanisms, generated plans
// with two transfer retries.
type Config struct {
	// Scenarios are registered scenario names (default: the chaos trio).
	Scenarios []string
	// Mechanisms are rescaling mechanisms (default: drrs, meces, megaphone).
	Mechanisms []string
	// Seeds drive both the workload and the generated fault plan; required.
	Seeds []int64
	// Retries arms transfer retry on generated plans (default 2; negative
	// disables).
	Retries int
	// Workers bounds the parallel runner (<= 0 selects GOMAXPROCS).
	Workers int
	// Overrides apply to each case's scenario before its generated plan.
	Overrides bench.Overrides
}

// shrinkBudget caps re-executions per shrink of a violating case's plan.
const shrinkBudget = 24

func (cfg *Config) fillDefaults() {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = []string{"node-loss-mid-migrate", "straggler-rack", "flaky-uplink"}
	}
	if len(cfg.Mechanisms) == 0 {
		cfg.Mechanisms = []string{"drrs", "meces", "megaphone"}
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
}

// Violation is one oracle failure, self-reproducing from Seed + Spec.
type Violation struct {
	Scenario  string
	Mechanism string
	Seed      int64
	Oracle    string
	Detail    string
	// Plan is the fault plan in force (shrunk when Shrunk); Spec is its
	// canonical spec string — faults.ParseSpec(Spec) replays it exactly.
	Plan faults.Plan `json:"-"`
	Spec string
	// Shrunk marks a minimized plan; ShrinkRuns counts the re-executions
	// the shrinker spent.
	Shrunk     bool
	ShrinkRuns int `json:",omitempty"`
}

// Repro renders the CLI invocation that replays the violation's one run.
func (v Violation) Repro() string {
	return fmt.Sprintf("drrs-sim -workload %s -mechanism %s -seed %d -faults %q",
		v.Scenario, v.Mechanism, v.Seed, v.Spec)
}

// Result summarizes a search. Scenarios and Mechanisms echo the resolved
// bounds (after defaulting), so callers can report what actually ran.
type Result struct {
	Scenarios  []string
	Mechanisms []string
	Cases      int
	Runs       int
	Violations []Violation
}

// Search fans (scenario × mechanism × seed) cases — each executed twice for
// the determinism oracle — over the parallel runner and evaluates every
// oracle on each case. The first violation of each failing case has its plan
// minimized, in at most shrinkBudget re-executions, before reporting.
func Search(cfg Config) Result {
	cfg.fillDefaults()
	if len(cfg.Seeds) == 0 {
		panic("chaos: Search needs at least one seed")
	}
	type searchCase struct {
		scenario, mech string
		seed           int64
		plan           faults.Plan
		probes         [2]*Probe
		specIdx        [2]int
	}
	h := bench.Harness{Workers: cfg.Workers, Overrides: cfg.Overrides}
	var cases []searchCase
	var specs []bench.RunSpec
	for _, scn := range cfg.Scenarios {
		gen := cfg.genConfig(h, scn)
		for _, seed := range cfg.Seeds {
			plan := faults.Generate(simtime.NewRNG(seed, "chaos/"+scn), gen)
			for _, mech := range cfg.Mechanisms {
				c := searchCase{scenario: scn, mech: mech, seed: seed, plan: plan}
				for r := 0; r < 2; r++ {
					c.probes[r] = &Probe{}
					c.specIdx[r] = len(specs)
					specs = append(specs, caseSpec(h, scn, mech, seed, clonePlan(plan), c.probes[r]))
				}
				cases = append(cases, c)
			}
		}
	}
	outs := bench.RunParallel(specs, h.Workers)
	res := Result{Scenarios: cfg.Scenarios, Mechanisms: cfg.Mechanisms, Cases: len(cases), Runs: len(specs)}
	for i := range cases {
		c := &cases[i]
		if !c.probes[0].filled || !c.probes[1].filled {
			// The Inspect hook is the state oracles' only window into the
			// runtime; a run that never invoked it yields vacuously-passing
			// oracles, which must never be mistaken for a clean search.
			panic("chaos: Inspect hook never ran")
		}
		o0, o1 := outs[c.specIdx[0]], outs[c.specIdx[1]]
		fs := append([]Finding(nil), c.probes[0].findings...)
		fs = append(fs, liveness(c.plan, o0)...)
		fs = append(fs, determinism(o0, o1)...)
		for j, f := range fs {
			v := Violation{
				Scenario: c.scenario, Mechanism: c.mech, Seed: c.seed,
				Oracle: f.Oracle, Detail: f.Detail,
				Plan: clonePlanVal(c.plan), Spec: specOf(c.plan),
			}
			if j == 0 {
				v = ShrinkViolation(v, h, shrinkBudget)
			}
			res.Violations = append(res.Violations, v)
		}
	}
	return res
}

// genConfig resolves the generator targets for one scenario — derived from
// the cluster its runs will have — plus the search's retry knob.
func (cfg *Config) genConfig(h bench.Harness, scenario string) faults.GenConfig {
	g := faults.GenConfig{Retries: cfg.Retries}
	g.Nodes, g.Racks = deriveTargets(h, scenario)
	return g
}

// deriveTargets builds the cluster the runs will have — the scenario's under
// the harness's overrides — on a throwaway scheduler and collects its
// schedulable nodes and racks as fault targets.
func deriveTargets(h bench.Harness, scenario string) (nodes, racks []string) {
	sc := mustScenario(h, scenario, 1)
	if sc.Cluster == nil {
		return nil, nil
	}
	cl := sc.Cluster(simtime.NewScheduler())
	for _, n := range cl.Nodes() {
		if nd := cl.Node(n); nd != nil && !nd.Unschedulable {
			nodes = append(nodes, n)
		}
	}
	return nodes, cl.Racks()
}

// mustScenario is the registered scenario under the harness's overrides.
// Overrides it cannot take panic, like an unknown scenario name.
func mustScenario(h bench.Harness, scenario string, seed int64) bench.Scenario {
	sc, err := h.Scenario(scenario, seed)
	if err != nil {
		panic(err)
	}
	return sc
}

// caseSpec assembles one run: the scenario with its fault plan replaced by
// the generated one and the probe's oracle hook installed.
func caseSpec(h bench.Harness, scenario, mech string, seed int64, plan *faults.Plan, p *Probe) bench.RunSpec {
	sc := mustScenario(h, scenario, seed)
	sc.Faults = plan
	sc.Inspect = p.fill
	return bench.RunSpec{Scenario: sc, Mechanism: mech}
}

// execCase re-runs one case (a pair when the determinism oracle is under
// test) and returns its findings — the shrinker's probe.
func execCase(scenario, mech string, seed int64, plan faults.Plan, pair bool, h bench.Harness) []Finding {
	n := 1
	if pair {
		n = 2
	}
	probes := make([]*Probe, n)
	specs := make([]bench.RunSpec, n)
	for r := 0; r < n; r++ {
		probes[r] = &Probe{}
		specs[r] = caseSpec(h, scenario, mech, seed, clonePlan(plan), probes[r])
	}
	outs := bench.RunParallel(specs, h.Workers)
	if !probes[0].filled {
		panic("chaos: Inspect hook never ran")
	}
	fs := append([]Finding(nil), probes[0].findings...)
	fs = append(fs, liveness(plan, outs[0])...)
	if pair {
		fs = append(fs, determinism(outs[0], outs[1])...)
	}
	return fs
}

// liveness: when the plan leaves no permanent disruption, every launched
// scaling operation must have completed or been overtaken by a later
// decision that launched and completed. Deliberately decision-scoped rather
// than Outcome.Done: a pre-empted wave may legitimately linger past the
// horizon (Megaphone cannot cancel announced rounds, and its frontier-driven
// reconfigurations starve once the sources stop emitting) — the controller
// has already re-planned around it and finished, so the lingering wave is not
// a stuck operation. Decision.Superseded marks the pre-empting decision, not
// the pre-empted one, so it excuses nothing here.
func liveness(plan faults.Plan, o bench.Outcome) []Finding {
	if permanentDisruption(plan) {
		return nil
	}
	stuck, laterDone := 0, false
	for i := len(o.Decisions) - 1; i >= 0; i-- {
		d := o.Decisions[i]
		if d.Launched && !d.Done && !laterDone {
			stuck++
		}
		laterDone = laterDone || (d.Launched && d.Done)
	}
	if stuck == 0 {
		return nil
	}
	return []Finding{{OracleLiveness, fmt.Sprintf(
		"%d launched operations neither completed nor followed by a completed re-plan (all faults heal; run done=%v, end %v)",
		stuck, o.Done, o.EndAt)}}
}

// permanentDisruption reports whether the plan leaves the cluster degraded
// forever: a crash that never restarts, or an uplink fault that never heals.
// (A straggler is slow but alive — progress is still guaranteed.) Liveness
// is vacuous under permanent disruption.
func permanentDisruption(plan faults.Plan) bool {
	for _, f := range plan.Faults {
		switch f.Kind {
		case faults.Crash:
			if f.Restart <= 0 {
				return true
			}
		case faults.Uplink:
			if f.Heal <= 0 {
				return true
			}
		}
	}
	return false
}

// determinism: two runs of the identical case must digest identically.
func determinism(a, b bench.Outcome) []Finding {
	da, db := bench.OutcomeDigest(a), bench.OutcomeDigest(b)
	if da == db {
		return nil
	}
	return []Finding{{OracleDeterminism, fmt.Sprintf(
		"digest 0x%016x vs 0x%016x across identical runs", da, db)}}
}

// hasOracle reports whether findings contain the named oracle.
func hasOracle(fs []Finding, oracle string) bool {
	for _, f := range fs {
		if f.Oracle == oracle {
			return true
		}
	}
	return false
}

// clonePlan deep-copies a plan onto the heap: each parallel run owns its
// plan (the injector normalizes defaults in place).
func clonePlan(p faults.Plan) *faults.Plan {
	cp := clonePlanVal(p)
	return &cp
}

func clonePlanVal(p faults.Plan) faults.Plan {
	p.Faults = append([]faults.Fault(nil), p.Faults...)
	return p
}

func specOf(p faults.Plan) string { return p.Spec() }
