package scaling

import (
	"testing"

	"drrs/internal/dataflow"
)

// bigclusterPlan mirrors the bigcluster-128 scenario's scale-out: 1024 key
// groups repartitioned 256→320, the largest plan the registered scenarios
// build.
func bigclusterPlan() Plan {
	return newPlan("agg", 256, 320, 1024, dataflow.UniformRepartition(1024, 256, 320), 0)
}

// BenchmarkPlanMoveIndex measures one MoveIndex per move of the
// bigcluster-128 plan — the lookup every mechanism's per-record gate and
// the migrator make (gated in bench_baseline.json).
func BenchmarkPlanMoveIndex(b *testing.B) {
	plan := bigclusterPlan()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, m := range plan.Moves {
			if at, ok := plan.MoveIndex(m.KeyGroup); ok {
				sink += plan.Moves[at].To
			}
		}
	}
	_ = sink
}
