package chaos

import (
	"strings"
	"testing"

	"drrs/internal/bench"
	"drrs/internal/control"
	"drrs/internal/faults"
	"drrs/internal/simtime"
)

// crashHeavyGen aims the fuzzer at the operator's home rack (the node-loss
// scenario packs the job onto r0), so generated crashes reliably hit nodes
// that hold keyed state. An untargeted search still works — it just spends
// most of its faults on empty nodes.
func crashHeavyGen() *faults.GenConfig {
	return &faults.GenConfig{
		Nodes:       []string{"r0n0", "r0n1", "r0n2", "r0n3"},
		MinFaults:   4,
		MaxFaults:   6,
		CrashWeight: 3, StraggleWeight: 1, UplinkWeight: 1,
	}
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
	if res.Cases != 18 || res.Runs != 36 {
		t.Fatalf("cases=%d runs=%d, want 18/36 (trio × 3 mechanisms × 2 seeds × pair)", res.Cases, res.Runs)
	}
	for _, v := range res.Violations {
		t.Errorf("[%s/%s seed=%d] %s: %s\n  repro: %s",
			v.Scenario, v.Mechanism, v.Seed, v.Oracle, v.Detail, v.Repro())
	}
}

// TestSearchTargetedCleanAtHead raises the bar: crash-heavy plans aimed at
// the state-holding rack, across all three mechanisms. Recovery, transfer
// retry, re-planning, and the accounting counters all get exercised hard —
// and must stay violation-free.
func TestSearchTargetedCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos search simulates minutes of virtual time")
	}
	res := Search(Config{
		Scenarios: []string{"node-loss-mid-migrate"},
		Seeds:     []int64{1, 2, 3},
		Gen:       crashHeavyGen(),
	})
	for _, v := range res.Violations {
		t.Errorf("[%s/%s seed=%d] %s: %s\n  repro: %s",
			v.Scenario, v.Mechanism, v.Seed, v.Oracle, v.Detail, v.Repro())
	}
}

// TestBrokenRecoveryCaughtAndShrunk is the harness-of-the-harness acceptance
// test: with the recovery re-plan disabled behind the test hook, the search
// must catch the regression on every seed, shrink a failing plan to at most
// three faults, and the shrunk spec string must reproduce the violation from
// its seed alone (replayed through faults.ParseSpec, exactly as a developer
// pasting the repro line would).
func TestBrokenRecoveryCaughtAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos search simulates minutes of virtual time")
	}
	prev := faults.SetDisableRecovery(true)
	defer faults.SetDisableRecovery(prev)
	seeds := []int64{1, 2, 3}
	res := Search(Config{
		Scenarios:  []string{"node-loss-mid-migrate"},
		Mechanisms: []string{"drrs"},
		Seeds:      seeds,
		Gen:        crashHeavyGen(),
		Shrink:     true,
	})
	bySeed := map[int64]int{}
	for _, v := range res.Violations {
		bySeed[v.Seed]++
	}
	for _, s := range seeds {
		if bySeed[s] == 0 {
			t.Errorf("seed %d: broken recovery not caught", s)
		}
	}
	var shrunk *Violation
	for i := range res.Violations {
		v := &res.Violations[i]
		if !v.Shrunk {
			continue
		}
		if len(v.Plan.Faults) > 3 {
			t.Errorf("seed %d: shrunk plan still has %d faults (%s)", v.Seed, len(v.Plan.Faults), v.Spec)
		}
		if v.ShrinkRuns <= 0 {
			t.Errorf("seed %d: shrunk without spending runs", v.Seed)
		}
		if shrunk == nil {
			shrunk = v
		}
	}
	if shrunk == nil {
		t.Fatal("no violation was shrunk")
	}
	// The repro line names the exact flags; the spec string must parse and
	// reproduce the same oracle violation.
	if !strings.Contains(shrunk.Repro(), shrunk.Spec) {
		t.Fatalf("repro %q does not carry the spec", shrunk.Repro())
	}
	p, err := faults.ParseSpec(shrunk.Spec)
	if err != nil {
		t.Fatalf("shrunk spec %q does not parse: %v", shrunk.Spec, err)
	}
	fs := execCase(shrunk.Scenario, shrunk.Mechanism, shrunk.Seed, *p,
		shrunk.Oracle == OracleDeterminism, bench.Harness{})
	if !hasOracle(fs, shrunk.Oracle) {
		t.Fatalf("replaying %q at seed %d did not reproduce the %s violation (got %v)",
			shrunk.Spec, shrunk.Seed, shrunk.Oracle, fs)
	}
	t.Logf("shrunk to %d fault(s) in %d runs: %s", len(shrunk.Plan.Faults), shrunk.ShrinkRuns, shrunk.Repro())
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
