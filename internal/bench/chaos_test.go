package bench

import (
	"fmt"
	"slices"
	"testing"

	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// requireSameFaults extends the bit-for-bit outcome guard to the fault block:
// chaos runs must reproduce the identical disruption-and-recovery story, not
// just the same traffic.
func requireSameFaults(t *testing.T, label string, a, b Outcome) {
	t.Helper()
	requireSameOutcome(t, label, a, b)
	if (a.Faults == nil) != (b.Faults == nil) {
		t.Fatalf("%s: fault summary presence differs", label)
	}
	if a.Faults != nil && *a.Faults != *b.Faults {
		t.Fatalf("%s: fault summary differs:\n  %s\n  %s", label, a.Faults, b.Faults)
	}
}

// TestNodeLossRecoveryTentpole is the acceptance test for the chaos track's
// headline behaviour: a reactive scale-out whose destination node crashes
// mid-migration must complete anyway — in-flight chunks revert to their
// sources, the controller's health feed supersedes the wounded operation with
// a re-plan from the surviving placement, and the checkpoint layer restores
// the crashed instances' groups — with ZERO key groups lost, at two seeds,
// bit for bit deterministically.
func TestNodeLossRecoveryTentpole(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs simulate ~30 virtual seconds")
	}
	t.Parallel()
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a := sharedRun(t, "node-loss-mid-migrate", seed, "drrs")
			b := ScenarioByName("node-loss-mid-migrate", seed).RunWith(drrsFactory)
			requireSameFaults(t, "node-loss/drrs", a, b)
			f := a.Faults
			if f == nil {
				t.Fatal("faulted run produced no fault summary")
			}
			t.Logf("%s", f)
			if f.Crashes < 1 {
				t.Fatalf("planned crash never fired: %s", f)
			}
			if f.LostGroups != 0 {
				t.Fatalf("recovery lost %d key groups, want 0: %s", f.LostGroups, f)
			}
			if f.RecoveredGroups == 0 {
				t.Fatalf("checkpoint restore never ran: %s", f)
			}
			if f.FailedTransfers == 0 {
				t.Fatalf("crash missed the in-flight migration (no failed transfers): %s", f)
			}
			if f.Replans == 0 {
				t.Fatalf("controller never re-planned around the crash: %s", f)
			}
			var sawRecovery bool
			for _, d := range a.Decisions {
				if d.Recovery {
					if !d.Superseded {
						t.Fatalf("recovery decision %d did not supersede the in-flight op: %+v", d.Seq, d)
					}
					sawRecovery = true
				}
			}
			if !sawRecovery {
				t.Fatal("no recovery decision in the audit trail")
			}
			if !a.Done {
				t.Fatal("run did not complete every launched operation")
			}
		})
	}
}

// TestChaosScenariosDeterministic pins the other two chaos scenarios to the
// same bit-for-bit bar at two seeds each (the golden digests guard one seed;
// this guards the mechanism across seeds without pinning more constants).
func TestChaosScenariosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs simulate ~30 virtual seconds each")
	}
	t.Parallel()
	for _, name := range []string{"straggler-rack", "flaky-uplink"} {
		for _, seed := range []int64{1, 2} {
			name, seed := name, seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				a := sharedRun(t, name, seed, "drrs")
				requireSameFaults(t, name, a, ScenarioByName(name, seed).RunWith(drrsFactory))
				if a.Faults == nil || a.Faults.Events == 0 {
					t.Fatalf("fault plan never fired: %+v", a.Faults)
				}
				if a.Faults.LostGroups != 0 {
					t.Fatalf("lost %d key groups: %s", a.Faults.LostGroups, a.Faults)
				}
				t.Logf("%s", a.Faults)
			})
		}
	}
}

// TestLegacyMechanismsSurviveNodeLoss runs the tentpole crash scenario under
// every mechanism that does not honor Cancel (the name predates the single
// Begin contract and stays because the test floor pins it): the controller's
// health feed fires an involuntary supersession whose Cancel the operation
// records but cannot honor, so the wounded operation must still settle on its
// own — against a
// dead destination — and release the pending recovery plan. No operation may
// wedge: every launched decision except at most the horizon-cut last one
// reports done, deterministically across two seeds.
func TestLegacyMechanismsSurviveNodeLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs simulate ~30 virtual seconds per mechanism")
	}
	t.Parallel()
	for _, mech := range []string{"meces", "megaphone", "otfs", "stop-restart", "unbound"} {
		for _, seed := range []int64{1, 2} {
			mech, seed := mech, seed
			t.Run(fmt.Sprintf("%s/seed%d", mech, seed), func(t *testing.T) {
				a := sharedRun(t, "node-loss-mid-migrate", seed, mech)
				requireSameFaults(t, mech, a, ScenarioByName("node-loss-mid-migrate", seed).
					RunWith(func() scaling.Mechanism { return Mechanisms(mech) }))
				if a.Faults == nil || a.Faults.Crashes == 0 {
					t.Fatal("planned crash never fired")
				}
				t.Logf("%s", a.Faults)
				launched := -1
				for _, d := range a.Decisions {
					if !d.Launched {
						continue
					}
					if launched >= 0 && !a.Decisions[launched].Done {
						t.Fatalf("operation %d wedged: a later decision launched while it never settled: %+v",
							launched, a.Decisions[launched])
					}
					launched = d.Seq
				}
				if launched < 0 {
					t.Fatal("controller never launched an operation")
				}
			})
		}
	}
}

// TestLegacyCancelDuringDeployAndMigrate targets the two remaining phases of
// the supersession matrix directly: each mechanism that does not honor Cancel
// is cancelled once during deploy (setup still pending) and once
// mid-migration. The operation reports the cancel as not honored and must
// still run to completion with every planned group at its destination — a cancel must
// never strand state or wedge the done callback.
func TestLegacyCancelDuringDeployAndMigrate(t *testing.T) {
	for _, mech := range []string{"meces", "megaphone", "otfs", "stop-restart", "unbound"} {
		for _, phase := range []scaling.Phase{scaling.PhaseDeploy, scaling.PhaseMigrate} {
			mech, phase := mech, phase
			t.Run(fmt.Sprintf("%s/%s", mech, phase), func(t *testing.T) {
				if mech == "stop-restart" && phase == scaling.PhaseMigrate {
					t.Skip("stop&restart moves all state in one event — no observable migrate window to cancel in")
				}
				job := workload.DefaultJob()
				job.MaxKeyGroups, job.StateBytesPerKey = 32, 512
				g, _ := workload.BuildJob(job, workload.Classic(workload.ClassicSpec{
					Keys: 200, RatePerSec: 200, Duration: simtime.Sec(2), Seed: 7,
				}))
				s := simtime.NewScheduler()
				rt := engine.New(s, g, nil, engine.Config{Seed: 7, MarkerInterval: -1})
				rt.Start()
				plan := scaling.UniformPlan(g, "agg", 6, simtime.Ms(20))
				var done bool
				op := Mechanisms(mech).Begin(rt, plan, func() { done = true })
				var cancelled bool
				var probe func()
				probe = func() {
					if cancelled || done {
						return
					}
					// Mid-migration means some, not all, groups have landed.
					if pr := op.Progress(); pr.Phase >= phase && (phase == scaling.PhaseDeploy || pr.Moved > 0) {
						if op.Cancel() {
							t.Error("a mechanism that cannot stand down honored Cancel")
						}
						cancelled = true
						return
					}
					s.After(simtime.Ms(1), probe)
				}
				probe()
				s.Run()
				if !cancelled {
					t.Fatalf("operation finished before reaching phase %s", phase)
				}
				if !done {
					t.Fatal("cancelled operation wedged: done never fired")
				}
				for _, m := range plan.Moves {
					if !rt.Instance("agg", m.To).Store().HasGroup(m.KeyGroup) {
						t.Fatalf("kg %d stranded away from destination %d after cancel", m.KeyGroup, m.To)
					}
				}
			})
		}
	}
}

// TestZeroMovePlanWedge pins completion of a plan with no moves — the
// controller's same-target recovery re-plan, e.g. `drrs-sim -workload
// flaky-uplink -mechanism unbound -seed 1`, decision #2 (13→13). It once
// wedged 8 of the 10 mechanisms, which checked for completion only from
// transfer or barrier callbacks that such a plan never fires. Now
// scaling.Tracked finishes an operation once it is deployed and owes no
// work, so every mechanism reports done.
func TestZeroMovePlanWedge(t *testing.T) {
	for _, name := range MechanismNames() {
		if name == "no-scale" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			job := workload.DefaultJob()
			job.MaxKeyGroups = 32
			g, _ := workload.BuildJob(job, workload.Classic(workload.ClassicSpec{
				Keys: 400, RatePerSec: 2000, Duration: simtime.Sec(2), Seed: 7,
			}))
			s := simtime.NewScheduler()
			rt := engine.New(s, g, nil, engine.Config{Seed: 7, MarkerInterval: -1})
			rt.Start()
			fired := 0
			s.After(simtime.Sec(1), func() {
				plan := scaling.PlanFromPlacement(rt, "agg", len(rt.Instances("agg")), simtime.Ms(20))
				if len(plan.Moves) != 0 {
					t.Fatalf("same-parallelism plan has %d moves", len(plan.Moves))
				}
				Mechanisms(name).Begin(rt, plan, func() { fired++ })
			})
			s.Run()
			if fired != 1 {
				t.Fatalf("zero-move plan: done fired %d times, want once", fired)
			}
		})
	}
}

// TestMechanismLifecycleContract states the operation-handle contract once,
// for every registered mechanism, on a cluster slow enough that each phase is
// observable at a 1 ms poll: the phase never steps backwards, Moved never
// exceeds Total and equals it at done, and "deploy" means the new instances do
// not exist yet — right after SetupDelay the operation is migrating with
// nothing landed. The handle is also the one reporter of the scale metrics:
// at done the scale started at Begin, ended at done, and counted exactly the
// groups the handle did.
func TestMechanismLifecycleContract(t *testing.T) {
	const setup = 20 * simtime.Millisecond
	type contractCase struct {
		mech       string
		afterSetup scaling.Phase
		// mayRegress: a Meces fetch-back pulls a sub-unit of a finished group
		// back to its old instance, so drain → migrate is legal there alone.
		mayRegress bool
	}
	cases := []contractCase{
		{mech: "drrs", afterSetup: scaling.PhaseMigrate},
		{mech: "drrs-dr", afterSetup: scaling.PhaseMigrate},
		{mech: "drrs-schedule", afterSetup: scaling.PhaseMigrate},
		{mech: "drrs-subscale", afterSetup: scaling.PhaseMigrate},
		{mech: "otfs", afterSetup: scaling.PhaseMigrate},
		{mech: "otfs-allatonce", afterSetup: scaling.PhaseMigrate},
		{mech: "megaphone", afterSetup: scaling.PhaseMigrate},
		{mech: "meces", afterSetup: scaling.PhaseMigrate, mayRegress: true},
		{mech: "unbound", afterSetup: scaling.PhaseMigrate},
		// Stop-restart's instances appear only when the restore ends, in the
		// same event that lands every group and finishes.
		{mech: "stop-restart", afterSetup: scaling.PhaseDeploy},
	}
	for _, name := range MechanismNames() {
		if name != "no-scale" && !slices.ContainsFunc(cases, func(tc contractCase) bool { return tc.mech == name }) {
			t.Errorf("mechanism %s has no lifecycle-contract row", name)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mech, func(t *testing.T) {
			job := workload.DefaultJob()
			job.MaxKeyGroups, job.StateBytesPerKey = 32, 4096
			g, _ := workload.BuildJob(job, workload.Classic(workload.ClassicSpec{
				Keys: 400, RatePerSec: 2000, Duration: simtime.Sec(3), Seed: 7,
			}))
			s := simtime.NewScheduler()
			rt := engine.New(s, g, nil, engine.Config{Seed: 7, MarkerInterval: -1})
			rt.Cluster.Node("local").MigrationBandwidth = 1 << 20
			rt.Start()
			var (
				op              *scaling.Tracked
				done            bool
				seen            []scaling.Phase
				beginAt, doneAt simtime.Time
			)
			var poll func()
			poll = func() {
				pr := op.Progress()
				if pr.Moved > pr.Total {
					t.Fatalf("moved %d of %d", pr.Moved, pr.Total)
				}
				if n := len(seen); n == 0 || seen[n-1] != pr.Phase {
					if n > 0 && pr.Phase < seen[n-1] &&
						!(tc.mayRegress && seen[n-1] == scaling.PhaseDrain && pr.Phase == scaling.PhaseMigrate) {
						t.Fatalf("phase stepped back %v → %v (seen %v)", seen[n-1], pr.Phase, seen)
					}
					seen = append(seen, pr.Phase)
				}
				if !done {
					s.After(simtime.Ms(1), poll)
				}
			}
			s.After(simtime.Sec(1), func() {
				plan := scaling.UniformPlan(g, "agg", 6, setup)
				beginAt = s.Now()
				op = Mechanisms(tc.mech).Begin(rt, plan, func() { done, doneAt = true, s.Now() })
				if pr := op.Progress(); pr.Phase != scaling.PhaseDeploy || pr.Moved != 0 || pr.Total != len(plan.Moves) {
					t.Fatalf("at Begin: %+v, want deploy 0/%d", pr, len(plan.Moves))
				}
				poll()
				// Scheduled after Begin's own setup timer, so it fires behind it.
				s.After(setup, func() {
					if pr := op.Progress(); pr.Phase != tc.afterSetup || pr.Moved != 0 {
						t.Fatalf("right after SetupDelay: %+v, want %v with nothing landed", pr, tc.afterSetup)
					}
				})
			})
			s.Run()
			if !done {
				t.Fatal("done never fired")
			}
			pr := op.Progress()
			if pr.Phase != scaling.PhaseDone || pr.Moved != pr.Total {
				t.Fatalf("at done: %+v", pr)
			}
			if rt.Scale.ScaleStart != beginAt {
				t.Fatalf("scale start %v, want the Begin instant %v", rt.Scale.ScaleStart, beginAt)
			}
			if rt.Scale.ScaleEnd != doneAt {
				t.Fatalf("scale end %v, want the done instant %v", rt.Scale.ScaleEnd, doneAt)
			}
			if n := rt.Scale.UnitsMigrated(); n != pr.Moved || n != pr.Total {
				t.Fatalf("metrics count %d units migrated, handle %d of %d", n, pr.Moved, pr.Total)
			}
			if tc.afterSetup == scaling.PhaseMigrate && (len(seen) < 3 || seen[1] != scaling.PhaseMigrate) {
				t.Fatalf("phases seen %v, want deploy → migrate → … → done", seen)
			}
			t.Logf("phases: %v", seen)
		})
	}
}
