package chaos

import (
	"strings"
	"testing"

	"drrs/internal/bench"
	"drrs/internal/control"
	"drrs/internal/faults"
	"drrs/internal/simtime"
)

// crashHeavyPlans are crash-heavy fault plans aimed at the operator's home
// rack (the node-loss scenario packs the job onto r0), so their crashes
// reliably hit nodes that hold keyed state — one plan per seed 1..3.
var crashHeavyPlans = []struct {
	seed int64
	spec string
}{
	{1, "retry=2;straggle@10.692s:node=r0n2,factor=0.6000000000000001,heal=11.077s;crash@11.994s:node=r0n0,restart=7.198s;crash@12.883s:node=r0n1;crash@13.019s:node=r0n3,restart=4.932s;crash@18.206s:node=r0n0,restart=3.287s"},
	{2, "retry=2;crash@10.001s:node=r0n2,restart=6.646s;crash@12.999s:node=r0n2,restart=4.219s;straggle@14.613s:node=r0n3,factor=0.4,heal=5.287s;crash@17.124s:node=r0n2,restart=5.689s"},
	{3, "retry=2;straggle@12.056s:node=r0n1,factor=0.2,heal=10.746s;crash@14.019s:node=r0n0,restart=4.605s;crash@14.979s:node=r0n3;crash@15.508s:node=r0n0;crash@18.013s:node=r0n3,restart=5.229s"},
}

// mustPlan parses a fault spec the test owns.
func mustPlan(t *testing.T, spec string) faults.Plan {
	t.Helper()
	p, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return *p
}

// TestSearchCleanAtHead: the CI-shaped search — generated fault plans over
// the chaos trio, every mechanism, each case run twice — finds no oracle
// violations at HEAD. This is the baseline the broken-build test below is
// measured against.
func TestSearchCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos search simulates minutes of virtual time")
	}
	res := Search(Config{Seeds: []int64{1, 2}})
	if res.Cases != 60 || res.Runs != 120 {
		t.Fatalf("cases=%d runs=%d, want 60/120 (trio × 10 mechanisms × 2 seeds × pair)", res.Cases, res.Runs)
	}
	for _, v := range res.Violations {
		t.Errorf("[%s/%s seed=%d] %s: %s\n  repro: %s",
			v.Scenario, v.Mechanism, v.Seed, v.Oracle, v.Detail, v.Repro())
	}
}

// TestSearchTargetedCleanAtHead raises the bar: crash-heavy plans aimed at
// the state-holding rack, across all three mechanisms, each case run twice.
// Recovery, transfer retry, re-planning, and the accounting counters all get
// exercised hard — and must stay violation-free.
func TestSearchTargetedCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos search simulates minutes of virtual time")
	}
	const scenario = "node-loss-mid-migrate"
	for _, c := range crashHeavyPlans {
		plan := mustPlan(t, c.spec)
		for _, mech := range []string{"drrs", "meces", "megaphone"} {
			for _, f := range execCase(scenario, mech, c.seed, plan, true, bench.Harness{}) {
				v := Violation{Scenario: scenario, Mechanism: mech, Seed: c.seed, Spec: c.spec}
				t.Errorf("[%s/%s seed=%d] %s: %s\n  repro: %s",
					scenario, mech, c.seed, f.Oracle, f.Detail, v.Repro())
			}
		}
	}
}

// TestBrokenRecoveryCaughtAndShrunk is the harness-of-the-harness acceptance
// test: with recovery switched off in the plan itself ("recovery=off"), the
// oracles must catch the regression on every seed, the shrinker must reduce
// each failing plan to at most three faults, and the shrunk spec string must
// reproduce the violation from its seed alone (replayed through
// faults.ParseSpec, exactly as a developer pasting the repro line would).
func TestBrokenRecoveryCaughtAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos search simulates minutes of virtual time")
	}
	const scenario, mech = "node-loss-mid-migrate", "drrs"
	for _, c := range crashHeavyPlans {
		plan := mustPlan(t, "recovery=off;"+c.spec)
		fs := execCase(scenario, mech, c.seed, plan, true, bench.Harness{})
		if len(fs) == 0 {
			t.Errorf("seed %d: broken recovery not caught", c.seed)
			continue
		}
		v := ShrinkViolation(Violation{
			Scenario: scenario, Mechanism: mech, Seed: c.seed,
			Oracle: fs[0].Oracle, Detail: fs[0].Detail,
			Plan: plan, Spec: plan.Spec(),
		}, bench.Harness{}, shrinkBudget)
		if len(v.Plan.Faults) > 3 {
			t.Errorf("seed %d: shrunk plan still has %d faults (%s)", c.seed, len(v.Plan.Faults), v.Spec)
		}
		if v.ShrinkRuns <= 0 {
			t.Errorf("seed %d: shrunk without spending runs", c.seed)
		}
		// The repro line names the exact flags; the spec string must keep
		// recovery off, parse, and reproduce the same oracle violation.
		if !strings.Contains(v.Spec, "recovery=off") || !strings.Contains(v.Repro(), v.Spec) {
			t.Fatalf("seed %d: repro %q lost the recovery=off knob", c.seed, v.Repro())
		}
		p := mustPlan(t, v.Spec)
		replay := execCase(scenario, mech, c.seed, p, v.Oracle == OracleDeterminism, bench.Harness{})
		if !hasOracle(replay, v.Oracle) {
			t.Fatalf("replaying %q at seed %d did not reproduce the %s violation (got %v)",
				v.Spec, c.seed, v.Oracle, replay)
		}
		t.Logf("seed %d: %s shrunk to %d fault(s) in %d runs: %s",
			c.seed, v.Oracle, len(v.Plan.Faults), v.ShrinkRuns, v.Repro())
	}
}

// TestLivenessExcusesOnlyOvertakenOperations pins the liveness oracle on
// synthetic audit trails: a launched, unfinished operation is excused only
// when a later decision launched and completed. Decision.Superseded marks the
// pre-empting decision, so it must not excuse that decision's own operation.
func TestLivenessExcusesOnlyOvertakenOperations(t *testing.T) {
	var (
		done     = control.Decision{Launched: true, Done: true}
		hanging  = control.Decision{Launched: true}
		preempt  = control.Decision{Superseded: true, Launched: true, Done: true}
		preemptH = control.Decision{Superseded: true, Launched: true}
		waiting  = control.Decision{Superseded: true} // replaced before launch
	)
	healing := faults.Plan{Faults: []faults.Fault{{Kind: faults.Crash, Node: "n", Restart: simtime.Sec(1)}}}
	permanent := faults.Plan{Faults: []faults.Fault{{Kind: faults.Crash, Node: "n"}}}
	cases := []struct {
		name      string
		plan      faults.Plan
		decisions []control.Decision
		stuck     bool
	}{
		{"no decisions", healing, nil, false},
		{"completed", healing, []control.Decision{done}, false},
		{"last hangs", healing, []control.Decision{done, hanging}, true},
		{"pre-empted, pre-emptor completes", healing, []control.Decision{hanging, preempt}, false},
		{"pre-emptor hangs", healing, []control.Decision{done, preemptH}, true},
		{"chain hangs", healing, []control.Decision{hanging, preemptH}, true},
		{"later decision never launched", healing, []control.Decision{hanging, waiting}, true},
		{"earlier completion excuses nothing", healing, []control.Decision{done, hanging, waiting}, true},
		{"permanent disruption", permanent, []control.Decision{hanging}, false},
	}
	for _, c := range cases {
		fs := liveness(c.plan, bench.Outcome{Decisions: c.decisions})
		if got := hasOracle(fs, OracleLiveness); got != c.stuck {
			t.Errorf("%s: liveness finding %v, want %v (%v)", c.name, got, c.stuck, fs)
		}
	}
}

// TestSearchRequiresSeeds pins the no-silent-default contract.
func TestSearchRequiresSeeds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Search without seeds must panic")
		}
	}()
	Search(Config{})
}

// TestTargetsFollowOverriddenCluster: fault targets come from the cluster the
// runs will have. flash-crowd declares no cluster, so without overrides it
// yields no targets; under -topology rack4x4 it yields that fabric's 16
// schedulable nodes and 4 racks, not the registered scenario's (none).
func TestTargetsFollowOverriddenCluster(t *testing.T) {
	cfg := Config{}
	if g := cfg.genConfig(bench.Harness{}, "flash-crowd"); len(g.Nodes) != 0 || len(g.Racks) != 0 {
		t.Fatalf("flat scenario derived targets %v / %v", g.Nodes, g.Racks)
	}
	h := bench.Harness{Overrides: bench.Overrides{Topology: "rack4x4"}}
	g := cfg.genConfig(h, "flash-crowd")
	if len(g.Nodes) != 16 || g.Nodes[0] != "r0n0" || g.Nodes[15] != "r3n3" {
		t.Fatalf("nodes %v, want rack4x4's r0n0..r3n3", g.Nodes)
	}
	if strings.Join(g.Racks, ",") != "r0,r1,r2,r3" {
		t.Fatalf("racks %v, want r0..r3", g.Racks)
	}
	// With no overrides a clustered scenario derives what it always did.
	plain := cfg.genConfig(bench.Harness{}, "node-loss-mid-migrate")
	if strings.Join(plain.Nodes, ",") != strings.Join(g.Nodes, ",") {
		t.Fatalf("node-loss-mid-migrate (rack4x4) derived %v", plain.Nodes)
	}
}

// BenchmarkChaosPlanOverhead measures the per-run bookkeeping the chaos mode
// adds on top of the simulation itself: drawing the plan from the seed,
// cloning it for the run pair, and rendering + re-parsing the repro spec.
// Gated in CI via benchgate so the search stays generation-bound on the
// simulator, not on its own scaffolding.
func BenchmarkChaosPlanOverhead(b *testing.B) {
	cfg := faults.GenConfig{
		Nodes:   []string{"r0n0", "r0n1", "r0n2", "r0n3"},
		Racks:   []string{"r0", "r1", "r2", "r3"},
		Retries: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := faults.Generate(simtime.NewRNG(int64(i), "chaos/bench"), cfg)
		pair := [2]*faults.Plan{clonePlan(plan), clonePlan(plan)}
		spec := plan.Spec()
		if _, err := faults.ParseSpec(spec); err != nil {
			b.Fatal(err)
		}
		_ = pair
	}
}
