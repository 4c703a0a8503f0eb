package control

import (
	"testing"

	"drrs/internal/core"
	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/state"
	"drrs/internal/workload"
)

// newTestMech builds the cancellable mechanism the supersession paths need
// (core does not import control, so the test-only dependency is safe).
func newTestMech() scaling.Mechanism { return core.New(core.FullDRRS()) }

func snap(at simtime.Duration, p, backlog int, rps float64) Snapshot {
	return Snapshot{
		At:                simtime.Time(at),
		Parallelism:       p,
		TargetParallelism: p,
		SourceBacklog:     backlog,
		ThroughputRPS:     rps,
	}
}

func TestThresholdPolicyDeficitAndScaleIn(t *testing.T) {
	p := &Threshold{RatedRPS: 1000}
	// First sample primes the derivative — no action even with backlog.
	if acts := p.Observe(snap(simtime.Sec(1), 4, 200, 3000)); len(acts) != 0 {
		t.Fatalf("unprimed policy acted: %+v", acts)
	}
	// Backlog grew by 600 in 1 s: deficit above the 100 rec/s threshold.
	acts := p.Observe(snap(simtime.Sec(2), 4, 800, 3000))
	if len(acts) != 1 || acts[0].Target != 6 {
		t.Fatalf("deficit did not scale out by the step: %+v", acts)
	}
	// Flat backlog below backlogHigh: no action.
	if acts := p.Observe(snap(simtime.Sec(3), 6, 800, 3000)); len(acts) != 0 {
		t.Fatalf("flat backlog acted: %+v", acts)
	}
	// Absolute watermark fires regardless of the derivative.
	if acts := p.Observe(snap(simtime.Sec(4), 6, 1500, 3000)); len(acts) != 1 || acts[0].Target != 8 {
		t.Fatalf("backlogHigh did not fire: %+v", acts)
	}
	// Empty backlog at 30% utilization: scale in by the step.
	if acts := p.Observe(snap(simtime.Sec(5), 8, 0, 2400)); len(acts) != 1 || acts[0].Target != 6 {
		t.Fatalf("low utilization did not scale in: %+v", acts)
	}
}

func TestBacklogPolicyHysteresis(t *testing.T) {
	p := &Backlog{RatedRPS: 1000, Patience: 3}
	// Demand 6000+2000/2s = 7000 → ceil(7000/750) = 10: scale-out is
	// immediate.
	acts := p.Observe(snap(simtime.Sec(1), 8, 2000, 6000))
	if len(acts) != 1 || acts[0].Target != 10 {
		t.Fatalf("scale-out not immediate: %+v", acts)
	}
	// Oversized now — but shrink needs Patience consecutive samples, and
	// goal noise (need 4 vs 5) must not reset the countdown.
	if acts := p.Observe(snap(simtime.Sec(2), 10, 0, 3000)); len(acts) != 0 {
		t.Fatalf("shrink fired on the first sample: %+v", acts)
	}
	if acts := p.Observe(snap(simtime.Sec(3), 10, 0, 3400)); len(acts) != 0 {
		t.Fatalf("shrink fired on the second sample: %+v", acts)
	}
	acts = p.Observe(snap(simtime.Sec(4), 10, 0, 3000))
	if len(acts) != 1 {
		t.Fatalf("shrink never fired after patience: %+v", acts)
	}
	// Conservative goal: the largest need seen during the run
	// (ceil(3400/750) = 5), not the latest.
	if acts[0].Target != 5 {
		t.Fatalf("shrink target %d, want the conservative 5", acts[0].Target)
	}
	// A growth sample resets the countdown.
	p2 := &Backlog{RatedRPS: 1000, Patience: 2}
	p2.Observe(snap(simtime.Sec(1), 8, 0, 3000))    // shrinkRun 1
	p2.Observe(snap(simtime.Sec(2), 8, 4000, 8000)) // growth: resets
	if acts := p2.Observe(snap(simtime.Sec(3), 8, 0, 3000)); len(acts) != 0 {
		t.Fatalf("countdown survived a growth sample: %+v", acts)
	}
}

func TestPredictivePolicyExtrapolatesRamp(t *testing.T) {
	p := &Predictive{RatedRPS: 1000, Horizon: 2 * simtime.Second, Patience: 2}
	// Rate climbing 500 rec/s per second up to 5500; projected 2 s past the
	// last sample it is ~6500 → ceil(6500/750) = 9 instances, up from 4.
	var acts []Action
	for i := 0; i < predictWindow; i++ {
		acts = p.Observe(snap(simtime.Duration(i+1)*simtime.Second, 4, 0, 1500+500*float64(i+1)))
	}
	if len(acts) != 1 || acts[0].Target <= 4 {
		t.Fatalf("rising ramp not anticipated: %+v", acts)
	}
	// A flat window projects the current rate: no further growth.
	p2 := &Predictive{RatedRPS: 1000, Patience: 2}
	for i := 0; i < predictWindow; i++ {
		acts = p2.Observe(snap(simtime.Duration(i+1)*simtime.Second, 4, 0, 2900))
	}
	if len(acts) != 0 {
		t.Fatalf("flat load acted: %+v", acts)
	}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p := PolicyByName(name, PolicyParams{RatedRPS: 500})
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	PolicyByName("nope", PolicyParams{})
}

// scriptedPolicy emits a fixed (time, target) program — the unit-test stand-in
// for a reactive policy, so controller behaviour is exact.
type scriptedPolicy struct {
	prog []struct {
		at     simtime.Time
		target int
	}
	// busyAtProposal records the in-flight operation's progress the first
	// time a proposal lands while an operation is running — the snapshot a
	// superseding decision is made on.
	busyAtProposal *scaling.Progress
}

func (p *scriptedPolicy) Name() string { return "scripted-test" }

func (p *scriptedPolicy) Observe(s Snapshot) []Action {
	// Keep proposing the latest due target; the controller dedupes repeats.
	var target int
	for _, e := range p.prog {
		if s.At >= e.at {
			target = e.target
		}
	}
	if target == 0 {
		return nil
	}
	if s.Busy && target != s.TargetParallelism && p.busyAtProposal == nil {
		op := s.Op
		p.busyAtProposal = &op
	}
	return []Action{{Target: target, Reason: "scripted"}}
}

func controllerRig(t *testing.T, seed int64) (*simtime.Scheduler, *engine.Runtime) {
	t.Helper()
	g, _ := workload.BuildJob(workload.JobConfig{
		SourceParallelism: 2,
		AggParallelism:    4,
		MaxKeyGroups:      32,
		StateBytesPerKey:  8192,
		CostPerRecord:     200 * simtime.Microsecond,
	}, workload.Classic(workload.ClassicSpec{
		Keys:       400,
		RatePerSec: 1500,
		Duration:   simtime.Sec(12),
		Seed:       seed,
	}))
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: seed})
	// Slow migration so a second decision lands mid-operation.
	rt.Cluster.Node("local").MigrationBandwidth = 512 << 10
	rt.Start()
	return s, rt
}

// TestControllerSupersedesMidMigration is the controller-driving half of the
// concurrent-execution rule 1 coverage: the second decision fires while the
// first operation is still migrating, the controller cancels it, and the
// superseding plan — built by PlanFromPlacement — must source every move
// from the instance that *actually* holds the group, so nothing the
// cancelled operation already moved migrates twice.
func TestControllerSupersedesMidMigration(t *testing.T) {
	s, rt := controllerRig(t, 31)
	var plans []scaling.Plan
	pol := &scriptedPolicy{}
	pol.prog = append(pol.prog,
		struct {
			at     simtime.Time
			target int
		}{simtime.Time(simtime.Sec(1)), 6},
		struct {
			at     simtime.Time
			target int
		}{simtime.Time(simtime.Ms(3200)), 8},
	)
	var ctl *Controller
	ctl = New(rt, Config{
		Operator: "agg",
		Policy:   pol,
		Cadence:  simtime.Ms(250),
		Debounce: simtime.Ms(500),
		Min:      2,
		Max:      8,
		Setup:    simtime.Ms(50),
		Stop:     simtime.Time(simtime.Sec(12)),
	}, func() scaling.Mechanism { return newTestMech() }, Hooks{
		WillLaunch: func(d Decision, plan scaling.Plan) func() {
			if len(plans) == 1 {
				// Rule 1, checked at launch time: every move must leave from
				// the group's actual holder — never from its nominal
				// pre-cancellation owner — and a group the cancelled
				// operation already delivered to its final p=8 owner must
				// not be re-planned.
				moved2 := plan.Moved()
				for _, mv := range plan.Moves {
					holder := rt.Instance("agg", mv.From)
					if holder == nil || !holder.Store().HasGroup(mv.KeyGroup) {
						t.Errorf("superseding plan moves kg %d from %d, which does not hold it", mv.KeyGroup, mv.From)
					}
				}
				for _, mv := range plans[0].Moves {
					if ownerAt(rt, mv.KeyGroup) == state.OwnerOf(32, 8, mv.KeyGroup) && moved2.Has(mv.KeyGroup) {
						t.Errorf("kg %d already at its final owner but re-planned", mv.KeyGroup)
					}
				}
			}
			plans = append(plans, plan)
			return nil
		},
	})
	ctl.Start()
	s.RunUntil(simtime.Time(simtime.Sec(12)))
	rt.StopMarkers()
	s.Run()

	ds := ctl.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decisions %d, want 2: %+v", len(ds), ds)
	}
	if ds[0].To != 6 || ds[0].Superseded || !ds[0].Done {
		t.Fatalf("first decision: %+v", ds[0])
	}
	if ds[1].To != 8 || !ds[1].Superseded || !ds[1].Done {
		t.Fatalf("second decision must supersede and complete: %+v", ds[1])
	}
	if len(plans) != 2 {
		t.Fatalf("launched %d operations, want 2", len(plans))
	}
	// The supersession must land mid-migration for the rule to be exercised:
	// the cancelled operation had moved some groups but not all.
	if pol.busyAtProposal == nil {
		t.Fatal("second proposal never observed a busy operation (rig needs retuning)")
	}
	if pr := *pol.busyAtProposal; pr.Moved == 0 || pr.Moved >= pr.Total {
		t.Fatalf("supersession did not land mid-migration: %+v (rig needs retuning)", pr)
	}
	// Final placement: settled at 8 instances with contiguous ownership.
	if ctl.Parallelism() != 8 {
		t.Fatalf("final parallelism %d, want 8", ctl.Parallelism())
	}
}

// ownerAt reports the instance index holding kg (or -1).
func ownerAt(rt *engine.Runtime, kg int) int {
	for _, in := range rt.Instances("agg") {
		if in.Store().HasGroup(kg) {
			return in.Index
		}
	}
	return -1
}

// TestControllerSupersedeDuringDeploy regresses the synchronous-cancel
// wedge: when the superseding decision lands while the old operation is
// still in its deploy phase (nothing launched yet), DRRS's Cancel completes
// the old operation *inside* the Cancel call — the controller must have the
// pending decision registered before that, or the replacement never
// launches and the loop silently stops scaling.
func TestControllerSupersedeDuringDeploy(t *testing.T) {
	s, rt := controllerRig(t, 17)
	pol := &scriptedPolicy{}
	pol.prog = append(pol.prog,
		struct {
			at     simtime.Time
			target int
		}{simtime.Time(simtime.Sec(1)), 6},
		struct {
			at     simtime.Time
			target int
		}{simtime.Time(simtime.Ms(1600)), 8},
	)
	ctl := New(rt, Config{
		Operator: "agg",
		Policy:   pol,
		Cadence:  simtime.Ms(200),
		Debounce: simtime.Ms(400),
		Min:      2,
		Max:      8,
		// Deploy takes 2 s: the second decision fires mid-deploy, before any
		// subscale launches.
		Setup: simtime.Sec(2),
		Stop:  simtime.Time(simtime.Sec(12)),
	}, func() scaling.Mechanism { return newTestMech() }, Hooks{})
	ctl.Start()
	s.RunUntil(simtime.Time(simtime.Sec(12)))
	rt.StopMarkers()
	s.Run()

	ds := ctl.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decisions %d, want 2: %+v", len(ds), ds)
	}
	if !ds[1].Superseded {
		t.Fatalf("second decision did not supersede: %+v", ds[1])
	}
	if !ds[1].Launched || !ds[1].Done {
		t.Fatalf("superseding decision wedged (launched=%v done=%v): %+v",
			ds[1].Launched, ds[1].Done, ds[1])
	}
	if ctl.Parallelism() != 8 {
		t.Fatalf("final parallelism %d, want 8", ctl.Parallelism())
	}
}

// TestControllerDebounce: a policy that flip-flops every sample must be
// capped to one accepted decision per debounce window.
func TestControllerDebounce(t *testing.T) {
	s, rt := controllerRig(t, 7)
	flip := &flipPolicy{}
	ctl := New(rt, Config{
		Operator: "agg",
		Policy:   flip,
		Cadence:  simtime.Ms(100),
		Debounce: simtime.Sec(1),
		Min:      2,
		Max:      8,
		Stop:     simtime.Time(simtime.Sec(5)),
	}, func() scaling.Mechanism { return newTestMech() }, Hooks{})
	ctl.Start()
	s.RunUntil(simtime.Time(simtime.Sec(5)))
	rt.StopMarkers()
	s.Run()
	ds := ctl.Decisions()
	if len(ds) == 0 {
		t.Fatal("no decisions at all")
	}
	for i := 1; i < len(ds); i++ {
		if gap := ds[i].At.Sub(ds[i-1].At); gap < simtime.Sec(1) {
			t.Fatalf("decisions %d and %d only %v apart (debounce 1 s)", i-1, i, gap)
		}
	}
}

// flipPolicy asks for a different parallelism on every observation.
type flipPolicy struct{ n int }

func (p *flipPolicy) Name() string { return "flip" }

func (p *flipPolicy) Observe(s Snapshot) []Action {
	p.n++
	if p.n%2 == 0 {
		return []Action{{Target: 6, Reason: "flip"}}
	}
	return []Action{{Target: 4, Reason: "flop"}}
}
