package scaling

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// testGraph is the custom job with 4 aggregators over 32 key groups.
func testGraph() *dataflow.Graph {
	job := workload.DefaultJob()
	job.MaxKeyGroups = 32
	g, _ := workload.BuildJob(job, workload.Classic(workload.ClassicSpec{
		Keys: 1000, RatePerSec: 1000, Duration: simtime.Sec(1),
	}))
	return g
}

func testPlan(t *testing.T) (Plan, *dataflow.Graph) {
	t.Helper()
	g := testGraph()
	return UniformPlan(g, "agg", 6, simtime.Ms(10)), g
}

func TestUniformPlanShape(t *testing.T) {
	plan, _ := testPlan(t)
	if plan.OldParallelism != 4 || plan.NewParallelism != 6 {
		t.Fatalf("parallelism %d→%d", plan.OldParallelism, plan.NewParallelism)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves")
	}
	for _, m := range plan.Moves {
		if m.From == m.To || m.From >= 4 || m.To >= 6 {
			t.Fatalf("bad move %+v", m)
		}
	}
}

func TestUniformPlanPanicsOnNonKeyed(t *testing.T) {
	_, g := testPlan(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-keyed operator")
		}
	}()
	UniformPlan(g, "sink", 2, 0)
}

func TestNewRoutingMatchesMoves(t *testing.T) {
	plan, g := testPlan(t)
	rt := plan.NewRouting(g.Operator("agg").MaxKeyGroups)
	for _, m := range plan.Moves {
		if rt.Owner(m.KeyGroup) != m.To {
			t.Fatalf("kg %d routed to %d, want %d", m.KeyGroup, rt.Owner(m.KeyGroup), m.To)
		}
	}
	for kg := 0; kg < 32; kg++ {
		if _, moving := plan.MoveIndex(kg); !moving && rt.Owner(kg) >= 4 {
			t.Fatalf("unmoved kg %d routed to new instance %d", kg, rt.Owner(kg))
		}
	}
}

// TestMovesFrom: the per-source lists partition the plan's moves, each in
// key-group order.
func TestMovesFrom(t *testing.T) {
	plan, _ := testPlan(t)
	var total int
	for idx := 0; idx < plan.NewParallelism; idx++ {
		last := -1
		for _, m := range plan.MovesFrom(idx) {
			if m.From != idx {
				t.Fatalf("MovesFrom(%d) returned move from %d", idx, m.From)
			}
			if m.KeyGroup <= last {
				t.Fatalf("MovesFrom(%d) not in key-group order: %d after %d", idx, m.KeyGroup, last)
			}
			last = m.KeyGroup
			total++
		}
	}
	if total != len(plan.Moves) {
		t.Fatalf("MovesFrom partition lost moves: %d vs %d", total, len(plan.Moves))
	}
}

func TestBatchRounds(t *testing.T) {
	plan, _ := testPlan(t)
	rounds := BatchRounds(plan, 3)
	var total int
	last := -1
	for _, r := range rounds {
		if len(r) == 0 || len(r) > 3 {
			t.Fatalf("round size %d", len(r))
		}
		for _, kg := range r {
			if kg <= last {
				t.Fatalf("rounds not in key-group order: %d after %d", kg, last)
			}
			last = kg
			total++
		}
	}
	if total != len(plan.Moves) {
		t.Fatalf("rounds cover %d of %d moves", total, len(plan.Moves))
	}
	// Zero batch size = single round.
	if rounds := BatchRounds(plan, 0); len(rounds) != 1 {
		t.Fatalf("zero batch should give one round, got %d", len(rounds))
	}
}

// TestOldInstanceAlignedCountsEachOnce: each round counts the distinct old
// instances that aligned in it. A repeated arrival counts once, rounds count
// apart, and a round short of every old instance starts no migration (the
// controller has no runtime here, so starting one would panic).
func TestOldInstanceAlignedCountsEachOnce(t *testing.T) {
	const old = 70 // the bitset's rounds straddle a word boundary
	c := NewCoupledController(Plan{OldParallelism: old}, [][]int{{0}, {1}})
	for idx := 0; idx < old-1; idx++ {
		c.oldInstanceAligned(idx, 1)
		c.oldInstanceAligned(idx, 1)
	}
	c.oldInstanceAligned(old-1, 0)
	c.oldInstanceAligned(old-1, 0)
	if c.alignedN[0] != 1 || c.alignedN[1] != old-1 {
		t.Fatalf("rounds count %v aligned old instances, want [1 %d]", c.alignedN, old-1)
	}
}

func TestDeployCreatesInstancesAfterSetup(t *testing.T) {
	g := testGraph()
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
	plan := UniformPlan(g, "agg", 6, simtime.Ms(50))
	var deployedAt simtime.Time
	var got int
	Deploy(rt, plan, func(added []*engine.Instance) {
		deployedAt = s.Now()
		got = len(added)
	})
	s.Run()
	if got != 2 {
		t.Fatalf("deployed %d instances, want 2", got)
	}
	if deployedAt != simtime.Time(simtime.Ms(50)) {
		t.Fatalf("deployed at %v, want 50ms", deployedAt)
	}
	if len(rt.Instances("agg")) != 6 {
		t.Fatal("instances not registered")
	}
}

func TestMigratorSequenceOrderAndCompletion(t *testing.T) {
	g := testGraph()
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
	plan := UniformPlan(g, "agg", 6, 0)
	op := NewTracked(plan, nil)
	var allDone bool
	Deploy(rt, plan, func([]*engine.Instance) {
		mig := NewMigrator(rt, plan, op, func() { allDone = true })
		bySrc := map[int][]int{}
		for _, m := range plan.Moves {
			bySrc[m.From] = append(bySrc[m.From], m.KeyGroup)
		}
		for _, kgs := range bySrc {
			mig.MigrateSequence(kgs, "test", nil)
		}
	})
	s.Run()
	if !allDone {
		t.Fatal("migrator onAll never fired")
	}
	if rt.Scale.UnitsMigrated() != len(plan.Moves) {
		t.Fatalf("migrated %d of %d", rt.Scale.UnitsMigrated(), len(plan.Moves))
	}
	if pr := op.Progress(); pr.Moved != len(plan.Moves) {
		t.Fatalf("migrator told the operation %d of %d groups landed", pr.Moved, len(plan.Moves))
	}
	// Every move's group now lives at its destination.
	for _, m := range plan.Moves {
		if !rt.Instance("agg", m.To).Store().HasGroup(m.KeyGroup) {
			t.Fatalf("kg %d missing at destination %d", m.KeyGroup, m.To)
		}
		if rt.Instance("agg", m.From).Store().HasGroup(m.KeyGroup) {
			t.Fatalf("kg %d still at source %d", m.KeyGroup, m.From)
		}
	}
}

// TestTrackedPhases pins the shared operation of the mechanisms that cannot
// stand down: deploy until told deployed, migrate while fewer groups than
// planned sit at their destination, drain when all have landed but the
// mechanism has not finished, done afterwards (firing the callback once) — and
// Cancel is recorded but reported as not honored.
func TestTrackedPhases(t *testing.T) {
	plan, _ := testPlan(t)
	fired := 0
	op := NewTracked(plan, func() { fired++ })
	want := func(ph Phase, moved int) {
		t.Helper()
		if pr := op.Progress(); pr.Phase != ph || pr.Moved != moved || pr.Total != len(plan.Moves) {
			t.Fatalf("progress %+v, want phase %v moved %d of %d", pr, ph, moved, len(plan.Moves))
		}
	}
	want(PhaseDeploy, 0)
	op.Deployed()
	want(PhaseMigrate, 0)
	op.SetMoved(1)
	want(PhaseMigrate, 1)
	if op.Cancel() {
		t.Fatal("a mechanism that cannot stand down must report Cancel as not honored")
	}
	if !op.Progress().Cancelled {
		t.Fatal("cancellation not recorded")
	}
	op.SetMoved(len(plan.Moves))
	want(PhaseDrain, len(plan.Moves))
	// A Meces fetch-back regresses a landed group.
	op.SetMoved(len(plan.Moves) - 1)
	want(PhaseMigrate, len(plan.Moves)-1)
	op.SetMoved(len(plan.Moves))
	if fired != 0 {
		t.Fatal("done fired before Finish")
	}
	op.Finish()
	want(PhaseDone, len(plan.Moves))
	if fired != 1 || !op.Progress().Cancelled {
		t.Fatalf("after Finish: done fired %d times, progress %+v", fired, op.Progress())
	}
	// done is optional.
	NewTracked(plan, nil).Finish()
}

func TestPlanFromPlacementAfterPartialMove(t *testing.T) {
	g := testGraph()
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
	// Manually move kg 0 from its owner to instance 3.
	from := rt.Instance("agg", 0)
	if !from.Store().HasGroup(0) {
		t.Skip("kg 0 not at instance 0 in this assignment")
	}
	rt.Instance("agg", 3).Store().InstallGroup(0, from.Store().ExtractGroup(0))
	plan := PlanFromPlacement(rt, "agg", 4, 0)
	// Re-planning to the same parallelism must move kg 0 back home and
	// nothing else.
	if len(plan.Moves) != 1 || plan.Moves[0].KeyGroup != 0 || plan.Moves[0].From != 3 || plan.Moves[0].To != 0 {
		t.Fatalf("plan %+v", plan.Moves)
	}
}
