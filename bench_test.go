package drrs

import (
	"testing"

	"drrs/internal/bench"
	"drrs/internal/scaling"
)

// BenchmarkEngineThroughput runs one whole twitch/no-scale simulation per
// iteration. CI gates its allocs/op and B/op (cmd/benchgate), so an
// allocation that creeps into any layer of a full run fails the build.
// Paper figures are printed by `drrs-bench -experiment <fig>`, and simulator
// speed is measured by `go run ./benchmark`.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := bench.TwitchScenario(int64(i + 100))
		o := sc.RunWith(func() scaling.Mechanism { return nil })
		b.ReportMetric(float64(o.Throughput.Total()), "records")
	}
}
