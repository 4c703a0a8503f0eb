package bench

import (
	"fmt"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// buildGraph constructs the run's job graph: through the split workload API
// when the scenario declares Job+Traffic, through its own Build closure
// otherwise (custom generators — twitch, nexmark — which have no replayable
// traffic stream).
func (sc *Scenario) buildGraph() (*dataflow.Graph, *engine.CollectSink) {
	if sc.Traffic == nil {
		return sc.Build(sc.Seed)
	}
	return workload.BuildJob(sc.Job, sc.Traffic)
}

// TrafficString renders the scenario's arrival-stream summary for listings.
func (sc Scenario) TrafficString() string {
	if sc.Traffic != nil {
		return sc.Traffic.Describe()
	}
	return "custom generator"
}

// RecordWith runs the scenario like RunWith while recording the arrival
// stream its sources consume, and returns the outcome together with the
// recorded trace (replayable via -replay or workload.Replay). Recording tees
// the stream without perturbing it: the outcome digest matches an unrecorded
// run bit-for-bit.
func (sc Scenario) RecordWith(newMech func() scaling.Mechanism) (Outcome, *workload.Trace) {
	if sc.Traffic == nil {
		panic(fmt.Sprintf("bench: scenario %q drives a custom generator; only custom-job scenarios record traces", sc.Name))
	}
	rec := workload.NewRecorder(sc.Traffic)
	sc.Traffic = rec
	return sc.RunWith(newMech), rec.Trace()
}

// MillionUsersSpec composes the heterogeneous load of the million-users
// scenario: nCohorts client populations (~1.3 M clients in total) with mixed
// arrival processes, staggered diurnal phases, drifting or pinned hot sets,
// and a sprinkling of cohorts hammering one shared global hot key. Aggregate
// offered load averages ≈3.7 K rec/s and peaks ≈1.3× over the 8-instance
// capacity, so backlog-driven controllers have real decisions to make.
func MillionUsersSpec(seed int64) workload.Spec {
	const nCohorts = 1200
	prm := simtime.NewRNG(seed, "bench/million-users/params")
	// Quantized key-space geometries: thousands of cohorts share a handful of
	// (KeyCount, Skew) pairs, so Live builds only a handful of Zipf tables.
	keyCounts := []int{160, 240, 320, 480}
	skews := []float64{0, 0.6, 0.9, 1.2}
	arrivals := []workload.Arrival{
		workload.ArrivalPoisson, workload.ArrivalPoisson, workload.ArrivalGamma,
		workload.ArrivalWeibull, workload.ArrivalConstant,
	}
	cohorts := make([]workload.Cohort, 0, nCohorts)
	for i := 0; i < nCohorts; i++ {
		c := workload.DefaultCohort()
		c.Name = fmt.Sprintf("c%04d", i)
		c.Clients = 400 + int(prm.Int64N(1400))
		// Cohorts aggregate to ~3.6 rec/s each regardless of population size;
		// individual clients are sub-1/minute, like real users.
		c.RatePerClient = 3.6 / float64(c.Clients)
		c.Arrival = arrivals[i%len(arrivals)]
		switch c.Arrival {
		case workload.ArrivalGamma:
			c.ArrivalShape = 0.5 // bursty sessions
		case workload.ArrivalWeibull:
			c.ArrivalShape = 0.8 // heavy-tailed think times
		case workload.ArrivalConstant:
			c.Jitter = 0.2 // polling clients
		}
		c.KeyCount = keyCounts[i%len(keyCounts)]
		c.Skew = skews[(i/len(keyCounts))%len(skews)]
		c.KeyBase = 1 + uint64((i*577)%7520)
		// A compressed day: every cohort rides the same diurnal cycle at a
		// phase staggered across a third of it — peaks roll through the
		// population but still pile up, pushing aggregate load past the
		// 8-instance capacity (~5.3K rec/s) so the backlog policy has to
		// scale out into the crest and back down the far side. (Spreading
		// phases over the full period would flatten the aggregate.)
		c.Load = workload.Diurnal(simtime.Sec(24), 0.55, 1.6)
		c.PhaseOffset = simtime.Duration(i%8) * simtime.Second
		if i%5 == 4 {
			// A fifth of the cohorts drift their hot set mid-run — the
			// adversarial case for placement decisions made at scale time.
			c.Load.HotKeyShiftEvery = simtime.Sec(float64(2 + i%3))
			c.Load.HotKeyShiftFraction = 0.1
		}
		if i%97 == 0 {
			// Global celebrities: a few cohorts all hit the same fixed keys,
			// concentrating cross-cohort load on a handful of key groups.
			c.KeySet = []uint64{11, 23, 37}
		}
		cohorts = append(cohorts, c)
	}
	return workload.Spec{Cohorts: cohorts, Duration: shapeHorizon, Seed: seed}
}

// MillionUsersScenario is the north-star load test: ≥1000 heterogeneous
// cohorts of simulated users (MillionUsersSpec) feeding the custom job, with
// the backlog controller deciding when to scale. The scripted fallback (for
// -driver script) is a single →12 wave.
func MillionUsersScenario(seed int64) Scenario {
	return Scenario{
		Name: "million-users",
		Job: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    8,
			MaxKeyGroups:      128,
			StateBytesPerKey:  512,
			CostPerRecord:     1500 * simtime.Microsecond,
		},
		Traffic:        workload.Live(MillionUsersSpec(seed)),
		ScaleOp:        "agg",
		NewParallelism: 12,
		Driver:         &ControllerDriver{Policy: "backlog", Min: 4, Max: 16},
		Warmup:         shapeWarmup,
		Measure:        shapeMeasure,
		Setup:          simtime.Ms(200),
		Seed:           seed,
	}
}

// traceReplaySpec is the small cohort mix behind the trace-replay scenario:
// six cohorts covering all four arrival processes, one drifting hot set, and
// one fixed-key cohort.
func traceReplaySpec(seed int64) workload.Spec {
	mk := func(name string, clients int, rate float64, arrival workload.Arrival, shape float64) workload.Cohort {
		c := workload.DefaultCohort()
		c.Name = name
		c.Clients = clients
		c.RatePerClient = rate / float64(clients)
		c.Arrival = arrival
		c.ArrivalShape = shape
		c.KeyCount = 2000
		return c
	}
	steady := mk("steady", 4000, 900, workload.ArrivalPoisson, 1)
	steady.Skew = 0.9
	bursty := mk("bursty", 2500, 700, workload.ArrivalGamma, 0.5)
	bursty.KeyBase = 2001
	bursty.Skew = 1.1
	bursty.Load = workload.HotKeyDrift(simtime.Sec(5), 0.1)
	tail := mk("tail", 1500, 600, workload.ArrivalWeibull, 0.8)
	tail.KeyBase = 4001
	pollers := mk("pollers", 800, 700, workload.ArrivalConstant, 0)
	pollers.Jitter = 0.3
	pollers.KeyBase = 6001
	diurnal := mk("diurnal", 3000, 800, workload.ArrivalPoisson, 1)
	diurnal.KeyBase = 1001
	diurnal.Skew = 0.6
	diurnal.Load = workload.Diurnal(simtime.Sec(20), 0.7, 1.4)
	hot := mk("hotkeys", 500, 200, workload.ArrivalPoisson, 1)
	hot.KeySet = []uint64{5, 6, 7}
	return workload.Spec{
		Cohorts:  []workload.Cohort{steady, bursty, tail, pollers, diurnal, hot},
		Duration: shapeHorizon,
		Seed:     seed,
	}
}

// TraceReplayScenario demonstrates trace-driven runs end to end: it replays
// a trace synthesized from traceReplaySpec at construction, so the scenario
// is self-contained (sweeps and -list need no trace file). -replay swaps in
// a recorded trace from disk, which is the workflow for replaying real runs.
func TraceReplayScenario(seed int64) Scenario {
	job := workload.JobConfig{
		SourceParallelism: 2,
		AggParallelism:    8,
		MaxKeyGroups:      128,
		StateBytesPerKey:  1024,
		CostPerRecord:     1500 * simtime.Microsecond,
	}
	trace := workload.Synthesize(workload.Live(traceReplaySpec(seed)), job.SourceParallelism)
	return Scenario{
		Name:           "trace-replay",
		Job:            job,
		Traffic:        workload.Replay(trace),
		ScaleOp:        "agg",
		NewParallelism: 12,
		Warmup:         shapeWarmup,
		Measure:        shapeMeasure,
		Setup:          simtime.Ms(200),
		Seed:           seed,
	}
}
