package chaos

import (
	"fmt"
	"slices"
	"testing"

	"drrs/internal/bench"
	"drrs/internal/faults"
)

// chaosScenarios are the registered scenarios that carry their own fault
// plan.
var chaosScenarios = []string{"node-loss-mid-migrate", "straggler-rack", "flaky-uplink", "flaky-uplink-retry"}

// ownPlanSeeds are the seeds TestOwnPlanLiveness runs each cell at.
var ownPlanSeeds = []int64{1, 2, 3, 4}

// knownWedge is one (scenario, mechanism) cell whose own fault plan still
// leaves a launched operation unfinished, and the seeds it does so at.
type knownWedge struct {
	class string
	seeds []int64
}

// knownWedges is the allow-list of liveness findings on the scenarios' own
// fault plans, keyed "scenario/mechanism". Reproduce a cell with
// `drrs-sim -workload <scenario> -mechanism <mechanism> -seed <seed>`. The
// classes are ROADMAP item 1's:
//   - C: a coupled round waits for an old instance that is dead or cut off.
//   - S: stop-restart's checkpoint never completes.
//   - D: DRRS, with transfer retry off, leaves a failed transfer's operation
//     unconcluded.
//
// TestOwnPlanLiveness asserts every listed seed still wedges, so a fix must
// delete its entry: the list only shrinks.
var knownWedges = map[string]knownWedge{
	"node-loss-mid-migrate/otfs":           {"C", []int64{1, 2, 3, 4}},
	"node-loss-mid-migrate/otfs-allatonce": {"C", []int64{1, 2, 3, 4}},
	"node-loss-mid-migrate/drrs-schedule":  {"C", []int64{1, 2, 3, 4}},
	"node-loss-mid-migrate/drrs-subscale":  {"C", []int64{1, 2, 3, 4}},
	"flaky-uplink/otfs":                    {"C", []int64{1, 2, 3, 4}},
	"flaky-uplink/drrs-schedule":           {"C", []int64{1, 2, 3, 4}},
	"flaky-uplink/drrs-subscale":           {"C", []int64{1, 2, 3, 4}},
	"node-loss-mid-migrate/stop-restart":   {"S", []int64{1, 3, 4}},
	"flaky-uplink/drrs":                    {"D", []int64{4}},
}

// TestOwnPlanLiveness runs every chaos scenario under its own fault plan —
// the one its registration declares, not a generated one — for every
// mechanism except no-scale at seeds 1–4, and evaluates the state oracles
// and liveness on each run. A cell on the knownWedges allow-list must still
// fail liveness, and nothing else; every other cell must pass every oracle.
func TestOwnPlanLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("160 runs of ~30 virtual seconds each")
	}
	type ownCase struct {
		scenario, mech string
		seed           int64
		plan           faults.Plan
		probe          *Probe
	}
	var (
		cases []ownCase
		specs []bench.RunSpec
	)
	h := bench.Harness{}
	for _, scn := range chaosScenarios {
		for _, mech := range bench.MechanismNames() {
			if mech == "no-scale" {
				continue
			}
			for _, seed := range ownPlanSeeds {
				sc := mustScenario(h, scn, seed)
				if sc.Faults == nil {
					t.Fatalf("%s declares no fault plan", scn)
				}
				c := ownCase{scenario: scn, mech: mech, seed: seed, plan: clonePlanVal(*sc.Faults), probe: &Probe{}}
				sc.Inspect = c.probe.fill
				cases = append(cases, c)
				specs = append(specs, bench.RunSpec{Scenario: sc, Mechanism: mech})
			}
		}
	}
	for key, w := range knownWedges {
		if !slices.ContainsFunc(cases, func(c ownCase) bool { return c.scenario+"/"+c.mech == key }) {
			t.Errorf("allow-list entry %s (class %s) names no case of this test", key, w.class)
		}
	}
	outs := bench.RunParallel(specs, 0)
	for i, c := range cases {
		if !c.probe.filled {
			t.Fatalf("%s/%s seed %d: Inspect hook never ran", c.scenario, c.mech, c.seed)
		}
		fs := append(append([]Finding(nil), c.probe.findings...), liveness(c.plan, outs[i])...)
		repro := fmt.Sprintf("drrs-sim -workload %s -mechanism %s -seed %d", c.scenario, c.mech, c.seed)
		w, listed := knownWedges[c.scenario+"/"+c.mech]
		if listed && slices.Contains(w.seeds, c.seed) {
			if len(fs) != 1 || fs[0].Oracle != OracleLiveness {
				t.Errorf("allow-listed class-%s wedge no longer wedges (delete its entry) or fails more: %v\n  repro: %s",
					w.class, fs, repro)
			}
			continue
		}
		for _, f := range fs {
			t.Errorf("[%s/%s seed=%d] %s: %s\n  repro: %s", c.scenario, c.mech, c.seed, f.Oracle, f.Detail, repro)
		}
	}
}
