package workload

import (
	"testing"

	"drrs/internal/engine"
	"drrs/internal/simtime"
)

// BenchmarkWorkloadGen measures the generator-dominated end of the custom
// job: a high-rate source feeding a cheap single-instance aggregator, so the
// per-record source cost (RNG draws, shape modulation, timer scheduling,
// ingest/emit) is what the number tracks.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := newTestJob(func(j *testJob) {
			j.AggParallelism = 1
			j.Keys = 2000
			j.RatePerSec = 20000
			j.Skew = 0.8
			j.CostPerRecord = time1us
			j.Duration = simtime.Sec(3)
			j.Seed = int64(i + 1)
		})
		g, _ := cfg.build()
		s := simtime.NewScheduler()
		rt := engine.New(s, g, nil, engine.Config{Seed: cfg.Seed})
		rt.Start()
		s.RunUntil(simtime.Time(cfg.Duration))
		rt.StopMarkers()
		s.Run()
		if rt.Throughput.Total() < 50000 {
			b.Fatalf("generated only %d records", rt.Throughput.Total())
		}
	}
}

const time1us = 1 * simtime.Microsecond
