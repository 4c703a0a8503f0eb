package scaling

import (
	"slices"
	"testing"

	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
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
	c := &Coupled{BatchKGs: 3}
	c.prepare(plan)
	rounds := c.rounds
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
	one := &Coupled{}
	if one.prepare(plan); len(one.rounds) != 1 {
		t.Fatalf("zero batch should give one round, got %d", len(one.rounds))
	}
}

// TestOldInstanceAlignedCountsEachOnce: each round counts the distinct old
// instances that aligned in it. A repeated arrival counts once, rounds count
// apart, and a round short of every old instance starts no migration (the
// controller has no runtime here, so starting one would panic).
func TestOldInstanceAlignedCountsEachOnce(t *testing.T) {
	const old = 70 // the bitset's rounds straddle a word boundary
	c := &Coupled{BatchKGs: 1}
	c.prepare(Plan{OldParallelism: old, Moves: []dataflow.Move{{KeyGroup: 0}, {KeyGroup: 1}}})
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
	Deploy(rt, plan, func() {
		deployedAt = s.Now()
		got = len(rt.Instances("agg")) - plan.OldParallelism
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
	op := NewTracked(rt, plan, nil)
	var allDone bool
	Deploy(rt, plan, func() {
		mig := NewMigrator(rt, plan, op, nil)
		kgs := make([]int, len(plan.Moves))
		for i, m := range plan.Moves {
			kgs[i] = m.KeyGroup
		}
		mig.MigrateFluid(kgs, "test", func() { allDone = true })
	})
	s.Run()
	if !allDone {
		t.Fatal("MigrateFluid's done never fired")
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

// TestTrackedPhases pins the operation handle every mechanism reports to:
// deploy until told deployed, migrate while fewer groups than planned sit at
// their destination, drain when all have landed but work is still owed, done
// once it is deployed and nothing is owed (firing the callback once). A Pay
// before Deployed does not finish, and Deployed with nothing owed finishes,
// once. The scale start is marked at NewTracked, each group's landing instant
// at its first Landed, and the scale end at the finish. Without a stand-down
// Cancel is recorded but reported as not honored; with one, Cancel runs it
// after recording.
func TestTrackedPhases(t *testing.T) {
	plan, g := testPlan(t)
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
	advance := func(d simtime.Duration) {
		s.After(d, func() {})
		s.Run()
	}
	advance(simtime.Ms(5))
	fired := 0
	op := NewTracked(rt, plan, func() {
		fired++
		if !rt.Scale.Ended() {
			t.Fatal("done fired before the scale end was marked")
		}
	})
	if rt.Scale.ScaleStart != simtime.Time(simtime.Ms(5)) {
		t.Fatalf("scale start %v, want 5ms", rt.Scale.ScaleStart)
	}
	want := func(ph Phase, moved int) {
		t.Helper()
		if pr := op.Progress(); pr.Phase != ph || pr.Moved != moved || pr.Total != len(plan.Moves) {
			t.Fatalf("progress %+v, want phase %v moved %d of %d", pr, ph, moved, len(plan.Moves))
		}
	}
	want(PhaseDeploy, 0)
	op.Owe(2)
	op.Pay(1)
	want(PhaseDeploy, 0)
	if fired != 0 {
		t.Fatal("a Pay before Deployed finished the operation")
	}
	op.Deployed()
	want(PhaseMigrate, 0)
	op.Landed(plan.Moves[0].KeyGroup)
	want(PhaseMigrate, 1)
	if op.Cancel() {
		t.Fatal("a mechanism that cannot stand down must report Cancel as not honored")
	}
	if !op.Progress().Cancelled {
		t.Fatal("cancellation not recorded")
	}
	advance(simtime.Ms(5))
	for _, m := range plan.Moves[1:] {
		op.Landed(m.KeyGroup)
	}
	want(PhaseDrain, len(plan.Moves))
	// A Meces fetch-back regresses a landed group; landing it again keeps
	// its first landing instant.
	last := plan.Moves[len(plan.Moves)-1].KeyGroup
	op.Unlanded()
	want(PhaseMigrate, len(plan.Moves)-1)
	advance(simtime.Ms(5))
	op.Landed(last)
	if at := rt.Scale.UnitDoneTimes()[last]; at != simtime.Time(simtime.Ms(10)) {
		t.Fatalf("kg %d landed at %v, want its first landing at 10ms", last, at)
	}
	if rt.Scale.UnitsMigrated() != len(plan.Moves) {
		t.Fatalf("%d units migrated, want %d", rt.Scale.UnitsMigrated(), len(plan.Moves))
	}
	if fired != 0 || rt.Scale.Ended() {
		t.Fatal("done fired or scale end marked while work is owed")
	}
	op.Pay(1)
	want(PhaseDone, len(plan.Moves))
	op.Deployed()
	op.Pay(0)
	if fired != 1 || !op.Progress().Cancelled {
		t.Fatalf("after the last Pay: done fired %d times, progress %+v", fired, op.Progress())
	}
	if rt.Scale.ScaleEnd != simtime.Time(simtime.Ms(15)) {
		t.Fatalf("scale end %v, want 15ms", rt.Scale.ScaleEnd)
	}
	// Paying more than is owed is a mechanism bug.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("overpaying did not panic")
			}
		}()
		op.Pay(1)
	}()
	// With nothing owed, Deployed finishes at once, and only once.
	empty := 0
	idle := NewTracked(rt, plan, func() { empty++ })
	idle.Deployed()
	idle.Deployed()
	if empty != 1 || idle.Progress().Phase != PhaseDone {
		t.Fatalf("Deployed with nothing owed: done fired %d times, phase %v", empty, idle.Progress().Phase)
	}
	// done is optional.
	NewTracked(rt, plan, nil).Deployed()
	// A registered stand-down makes Cancel honored; it runs after the
	// request is recorded.
	standing := NewTracked(rt, plan, nil)
	stoodDown := false
	standing.OnCancel(func() { stoodDown = standing.Progress().Cancelled })
	if !standing.Cancel() || !stoodDown {
		t.Fatalf("honored Cancel: returned false or stand-down ran before the request was recorded (%v)", stoodDown)
	}
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

// TestMigratorPhases: a fluid chain whose destination node dies mid-chain.
// The observer hears Extracted and then Landed or Reverted for every group,
// each chain's groups one after another in chain order; xfer_settled counts
// exactly the reverted groups; each reverted group is back in its source's
// store with every predecessor routing it there; and done fires once.
func TestMigratorPhases(t *testing.T) {
	g := testGraph()
	s := simtime.NewScheduler()
	cl := cluster.New(s)
	cl.AddNode("far", 1, 0)
	plan := UniformPlan(g, "agg", 6, 0)
	for idx := plan.OldParallelism; idx < plan.NewParallelism; idx++ {
		cl.Place(netsim.Endpoint{Op: "agg", Index: idx}, "far")
	}
	rt := engine.New(s, g, cl, engine.Config{Seed: 1, MarkerInterval: -1})
	op := NewTracked(rt, plan, nil)
	type event struct {
		kg int
		p  MovePhase
	}
	bySrc := map[int][]event{}
	final := map[int]MovePhase{}
	done := 0
	Deploy(rt, plan, func() {
		mig := NewMigrator(rt, plan, op, func(kg int, p MovePhase) {
			from := plan.Moves[plan.at[kg]].From
			bySrc[from] = append(bySrc[from], event{kg, p})
			final[kg] = p
		})
		kgs := make([]int, len(plan.Moves))
		for i, m := range plan.Moves {
			kgs[i] = m.KeyGroup
		}
		mig.MigrateFluid(kgs, "test", func() { done++ })
		// A cross-node group takes 700µs (transfer latency plus install), so
		// the node dies with its third group on the wire.
		s.After(1500*simtime.Microsecond, func() {
			cl.MarkDead("far")
			for idx := plan.OldParallelism; idx < plan.NewParallelism; idx++ {
				rt.Instance("agg", idx).Fail()
			}
		})
	})
	s.Run()

	if done != 1 {
		t.Fatalf("done fired %d times, want once", done)
	}
	for src := 0; src < plan.OldParallelism; src++ {
		evs := bySrc[src]
		var want []event
		for _, m := range plan.MovesFrom(src) {
			want = append(want, event{m.KeyGroup, Extracted}, event{m.KeyGroup, final[m.KeyGroup]})
		}
		if !slices.Equal(evs, want) {
			t.Fatalf("source %d reported %v, want %v", src, evs, want)
		}
	}
	landedFar, reverted := 0, 0
	for _, m := range plan.Moves {
		far := m.To >= plan.OldParallelism
		switch final[m.KeyGroup] {
		case Landed:
			if far {
				landedFar++
			}
		case Reverted:
			reverted++
			if !far {
				t.Fatalf("kg %d reverted, but its destination %d never died", m.KeyGroup, m.To)
			}
			if !rt.Instance("agg", m.From).Store().HasGroup(m.KeyGroup) {
				t.Fatalf("reverted kg %d is not back at its source %d", m.KeyGroup, m.From)
			}
			for _, p := range rt.PredecessorInstances("agg") {
				if got := p.Routing("agg").Owner(m.KeyGroup); got != m.From {
					t.Fatalf("%s routes reverted kg %d to %d, want its source %d", p.Name(), m.KeyGroup, got, m.From)
				}
			}
		default:
			t.Fatalf("kg %d ended in phase %d", m.KeyGroup, final[m.KeyGroup])
		}
	}
	if landedFar == 0 || reverted == 0 {
		t.Fatalf("%d groups landed at the dead node and %d reverted: the node did not die mid-chain", landedFar, reverted)
	}
	if got := rt.Scale.Counter("xfer_settled"); got != int64(reverted) {
		t.Fatalf("xfer_settled = %d, want the %d reverted groups", got, reverted)
	}
}
