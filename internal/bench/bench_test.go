package bench

import (
	"math"
	"strings"
	"testing"

	"drrs/internal/simtime"
)

func TestNewStat(t *testing.T) {
	s := NewStat([]float64{2, 4, 6})
	if s.Mean != 4 {
		t.Fatalf("mean %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(8.0/3)) > 1e-9 {
		t.Fatalf("std %v", s.Std)
	}
	if NewStat(nil) != (Stat{}) {
		t.Fatal("empty stat should be zero")
	}
	if !strings.Contains(s.String(), "±") {
		t.Fatal("stat string should carry ±")
	}
}

// TestMechanismsRegistry also keeps MechanismNames (what the CLIs validate
// against) in step with the factory: every listed name builds.
func TestMechanismsRegistry(t *testing.T) {
	for _, name := range MechanismNames() {
		if name == "no-scale" {
			continue
		}
		m := Mechanisms(name)
		if m == nil {
			t.Fatalf("mechanism %s is nil", name)
		}
		// Fresh instances every call: mechanisms carry per-run state.
		// (unbound is a zero-size struct, so pointer identity is meaningless
		// there — and it is also stateless.)
		if name != "unbound" && Mechanisms(name) == m {
			t.Fatalf("mechanism %s not fresh per call", name)
		}
	}
	if Mechanisms("no-scale") != nil {
		t.Fatal("no-scale should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mechanism should panic")
		}
	}()
	Mechanisms("bogus")
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 6 {
		t.Fatalf("registry has %d scenarios, want ≥6: %v", len(names), names)
	}
	for _, want := range []string{"q7", "q8", "twitch", "flash-crowd", "diurnal", "hotshift"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("scenario %q not registered (have %v)", want, names)
		}
	}
	multiWave := 0
	for _, name := range names {
		sc := ScenarioByName(name, 7)
		if sc.Name != name || sc.Seed != 7 || sc.ScaleOp == "" {
			t.Fatalf("scenario %s malformed: %+v", name, sc)
		}
		if len(sc.Program()) == 0 {
			t.Fatalf("scenario %s has an empty wave program", name)
		}
		if len(sc.Program()) > 1 {
			multiWave++
		}
		for _, w := range sc.Program() {
			if w.NewParallelism <= 0 {
				t.Fatalf("scenario %s wave targets parallelism %d", name, w.NewParallelism)
			}
		}
		g, _ := sc.buildGraph()
		if err := g.Validate(); err != nil {
			t.Fatalf("scenario %s graph invalid: %v", name, err)
		}
		if g.Operator(sc.ScaleOp) == nil || !g.Operator(sc.ScaleOp).KeyedInput {
			t.Fatalf("scenario %s scale operator %s not keyed", name, sc.ScaleOp)
		}
	}
	if multiWave == 0 {
		t.Fatal("registry should contain at least one multi-wave scenario")
	}
	if len(Definitions()) != len(names) {
		t.Fatalf("Definitions/ScenarioNames disagree: %d vs %d", len(Definitions()), len(names))
	}
	for _, def := range Definitions() {
		if def.Description == "" {
			t.Fatalf("scenario %s has no description for -list", def.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload should panic")
		}
	}()
	ScenarioByName("bogus", 1)
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register(Definition{Name: "q7", Description: "dup", New: Q7Scenario})
}

// TestFigureSeedValidation guards the empty-seed-list fix: figure harnesses
// must refuse an empty list up front with an error naming the problem,
// instead of panicking on outs[mech][0] deep inside rendering.
func TestFigureSeedValidation(t *testing.T) {
	for name, fn := range map[string]func() (FigureResult, error){
		"HeadToHead": func() (FigureResult, error) { return Harness{}.HeadToHead("twitch", nil) },
		"Fig2":       func() (FigureResult, error) { return Harness{}.Fig2(nil) },
		"Fig14":      func() (FigureResult, error) { return Harness{}.Fig14([]int64{}) },
		"MultiWave":  func() (FigureResult, error) { return Harness{}.MultiWave("flash-crowd", nil, nil) },
		"Sweep":      func() (FigureResult, error) { return Harness{}.Sweep(nil, nil, nil) },
		"Control":    func() (FigureResult, error) { return Harness{}.ControlFigure("flash-crowd-reactive", nil, nil) },
	} {
		if _, err := fn(); err == nil || !strings.Contains(err.Error(), "seed") {
			t.Errorf("%s with an empty seed list: err = %v, want an error naming the seed problem", name, err)
		}
	}
}

// TestRunRefusesMechanismReuseAcrossWaves documents why multi-wave scenarios
// need RunWith: mechanisms carry per-operation state, so Run's single
// instance cannot drive a second wave.
func TestRunRefusesMechanismReuseAcrossWaves(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full flash-crowd first wave before hitting the panic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run should refuse to reuse one mechanism across waves")
		}
	}()
	FlashCrowdScenario(1).Run(Mechanisms("drrs"))
}

func TestSensitivityScenarioPlacement(t *testing.T) {
	sc := SensitivityScenario(1, 8000, 10<<20, 0.5)
	g, _ := sc.buildGraph()
	if g.Operator("agg").MaxKeyGroups != 256 {
		t.Fatal("sensitivity must use 256 key groups (paper setup)")
	}
	if g.Operator("agg").Parallelism != 25 || sc.NewParallelism != 30 {
		t.Fatal("sensitivity must scale 25→30")
	}
	s := simtime.NewScheduler()
	cl := sc.Cluster(s)
	if len(cl.Nodes()) != 4 {
		t.Fatalf("swarm cluster has %d nodes, want 4", len(cl.Nodes()))
	}
}

// TestHeadlineShapeTwitch runs the smallest head-to-head (one seed) and
// asserts the paper's core orderings hold: DRRS beats Megaphone on peak
// latency and scaling duration, Meces has the lowest propagation delay, and
// Megaphone the largest propagation and dependency overhead.
func TestHeadlineShapeTwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shape test simulates ~150 virtual seconds")
	}
	t.Parallel()
	drrs := TwitchScenario(3).Run(Mechanisms("drrs"))
	meces := TwitchScenario(3).Run(Mechanisms("meces"))
	mega := TwitchScenario(3).Run(Mechanisms("megaphone"))
	for _, o := range []Outcome{drrs, meces, mega} {
		if !o.Done {
			t.Fatalf("%s never completed", o.Mechanism)
		}
	}
	from, to := drrs.ScaleAt, mega.EndAt
	if dp, mp := drrs.PeakIn(from, to), mega.PeakIn(from, to); dp >= mp {
		t.Fatalf("DRRS peak %.1f should beat Megaphone %.1f", dp, mp)
	}
	if drrs.ScalingPeriod() >= mega.ScalingPeriod() {
		t.Fatalf("DRRS period %v should beat Megaphone %v", drrs.ScalingPeriod(), mega.ScalingPeriod())
	}
	if meces.Scale.CumulativePropagationDelay() >= drrs.Scale.CumulativePropagationDelay() {
		t.Fatal("Meces should have the lowest propagation delay (Fig 12a)")
	}
	if mega.Scale.CumulativePropagationDelay() <= drrs.Scale.CumulativePropagationDelay() {
		t.Fatal("Megaphone should have the highest propagation delay (Fig 12a)")
	}
	if mega.Scale.AvgDependencyOverhead() <= drrs.Scale.AvgDependencyOverhead() {
		t.Fatal("Megaphone should have the highest dependency overhead (Fig 12b)")
	}
	if drrs.Scale.CumulativeSuspension() >= meces.Scale.CumulativeSuspension() {
		t.Fatal("DRRS should suspend less than Meces (Fig 13)")
	}
}

// TestFig2Shape asserts the motivation experiment's claim: Unbound removes
// essentially all scaling overhead (≈ No Scale), while OTFS does not.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 shape test simulates ~150 virtual seconds")
	}
	t.Parallel()
	unbound := TwitchScenario(4).Run(Mechanisms("unbound"))
	otfs := TwitchScenario(4).Run(Mechanisms("otfs"))
	base := TwitchScenario(4).Run(nil)
	from, to := unbound.ScaleAt, unbound.EndAt
	ub := unbound.AvgIn(from, to)
	ot := otfs.AvgIn(from, to)
	ns := base.AvgIn(from, to)
	if ot <= ub {
		t.Fatalf("OTFS avg %.1f should exceed Unbound %.1f", ot, ub)
	}
	if ub > ns*2 {
		t.Fatalf("Unbound avg %.1f should be close to No Scale %.1f", ub, ns)
	}
	if unbound.Scale.CumulativeSuspension() != 0 {
		t.Fatal("Unbound must never suspend")
	}
}
