package scaling

import (
	"slices"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// FuzzPlanIndex checks the plan's key-group index against a linear scan of
// Moves. The fuzzer draws a key-group count, old and new parallelism, and a
// mask of groups a cancelled operation already re-homed. A zero mask builds
// UniformPlan; any other mask applies those moves to a small runtime and
// plans with PlanFromPlacement. Every plan must list its moves in ascending
// key-group order and answer MoveIndex on every id in [-1, maxKG] and
// MovesFrom on every source as the scan does.
func FuzzPlanIndex(f *testing.F) {
	f.Add(uint8(32), uint8(4), uint8(6), uint64(0))
	f.Add(uint8(128), uint8(4), uint8(8), uint64(0b1011))
	f.Add(uint8(7), uint8(3), uint8(2), ^uint64(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(1))
	f.Fuzz(func(t *testing.T, maxKG, oldP, newP uint8, mask uint64) {
		kgs := int(maxKG)%128 + 1
		from := int(oldP)%min(kgs, 16) + 1
		to := int(newP)%min(kgs, 16) + 1
		job := workload.DefaultJob()
		job.MaxKeyGroups, job.AggParallelism = kgs, from
		g, _ := workload.BuildJob(job, workload.Classic(workload.ClassicSpec{
			Keys: 10, RatePerSec: 10, Duration: simtime.Sec(1),
		}))
		var plan Plan
		if mask == 0 {
			plan = UniformPlan(g, "agg", to, 0)
		} else {
			rt := engine.New(simtime.NewScheduler(), g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
			for kg := 0; kg < kgs; kg++ {
				if mask&(1<<(kg%64)) == 0 {
					continue
				}
				for _, in := range rt.Instances("agg") {
					if in.Store().HasGroup(kg) {
						dst := rt.Instance("agg", (in.Index+1)%from)
						dst.Store().InstallGroup(kg, in.Store().ExtractGroup(kg))
						break
					}
				}
			}
			plan = PlanFromPlacement(rt, "agg", to, 0)
		}
		for i := 1; i < len(plan.Moves); i++ {
			if plan.Moves[i].KeyGroup <= plan.Moves[i-1].KeyGroup {
				t.Fatalf("moves not in ascending key-group order: %+v after %+v", plan.Moves[i], plan.Moves[i-1])
			}
		}
		for kg := -1; kg <= kgs; kg++ {
			want := slices.IndexFunc(plan.Moves, func(m dataflow.Move) bool { return m.KeyGroup == kg })
			if got, ok := plan.MoveIndex(kg); ok != (want >= 0) || (ok && got != want) {
				t.Fatalf("MoveIndex(%d) = %d, %v; scan finds position %d", kg, got, ok, want)
			}
		}
		for src := 0; src < max(from, to); src++ {
			var want []dataflow.Move
			for _, m := range plan.Moves {
				if m.From == src {
					want = append(want, m)
				}
			}
			if got := plan.MovesFrom(src); !slices.Equal(got, want) {
				t.Fatalf("MovesFrom(%d) = %v, scan gives %v", src, got, want)
			}
		}
	})
}
