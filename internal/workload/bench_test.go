package workload

import (
	"bytes"
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

// BenchmarkTraceRecordReplay follows one trace through its life: record a
// Live spec of over 100 k arrivals as a run's sources would consume it,
// write the file, read it back and replay every stream. Its allocations are
// the recording, the decoded copy and the replay, with the Live generator's
// own cost underneath.
func BenchmarkTraceRecordReplay(b *testing.B) {
	spec := testSpec(7)
	spec.Duration = simtime.Sec(70)
	live := Live(spec)
	const p = 2
	var buf bytes.Buffer
	pass := func() {
		rec := NewRecorder(live)
		var ev Event
		for inst := 0; inst < p; inst++ {
			st := rec.Stream(inst, p, 0)
			for st.Next(&ev) {
			}
		}
		buf.Reset()
		if err := rec.Trace().Write(&buf); err != nil {
			b.Fatal(err)
		}
		tr, err := ReadTrace(&buf)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		replay := Replay(tr)
		for inst := 0; inst < p; inst++ {
			st := replay.Stream(inst, p, 0)
			for st.Next(&ev) {
				if !ev.Stop {
					n++
				}
			}
		}
		if n != tr.Events() || n < 100_000 {
			b.Fatalf("replayed %d of %d recorded arrivals, want at least 100000", n, tr.Events())
		}
	}
	pass() // sizes the file buffer, which every pass reuses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

const time1us = 1 * simtime.Microsecond
