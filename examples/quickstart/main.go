// Quickstart: build a small keyed streaming job on the simulated engine,
// run it, rescale the aggregator 4→6 with DRRS mid-stream, and print what
// happened. This is the smallest end-to-end use of the public pieces:
// workload construction, the engine runtime, a scaling plan, and the DRRS
// mechanism.
package main

import (
	"fmt"

	"drrs/internal/core"
	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

func main() {
	// A 3-operator job: generator → keyed aggregator (4 instances, 64 key
	// groups) → sink, 2000 records/s for 6 simulated seconds.
	job := workload.DefaultJob()
	job.MaxKeyGroups = 64
	job.CostPerRecord = 200 * simtime.Microsecond
	job.EmitUpdates = true
	g, sink := workload.BuildJob(job, workload.Classic(workload.ClassicSpec{
		Keys:       500,
		RatePerSec: 2000,
		Duration:   simtime.Sec(6),
		Seed:       42,
	}))

	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 42})
	rt.Start()

	// At t=2s, rescale "agg" from 4 to 6 instances with full DRRS
	// (Decoupling & Re-routing + Record Scheduling + Subscale Division).
	var done simtime.Time
	s.After(simtime.Sec(2), func() {
		plan := scaling.UniformPlan(g, "agg", 6, simtime.Ms(50))
		fmt.Printf("t=%v  scaling agg 4→6: %d of 64 key groups migrate\n",
			s.Now(), len(plan.Moves))
		core.New(core.FullDRRS()).Begin(rt, plan, func() { done = s.Now() })
	})

	// Run the whole simulation to completion (virtual time, so this is
	// instant in wall time).
	s.RunUntil(simtime.Time(simtime.Sec(6)))
	rt.StopMarkers()
	s.Run()

	fmt.Printf("t=%v  scaling completed (%v after request)\n",
		done, done.Sub(simtime.Time(simtime.Sec(2))))
	fmt.Printf("\nDelay decomposition (the paper's Lp / Ls / Ld):\n")
	fmt.Printf("  propagation Lp: %v\n", rt.Scale.CumulativePropagationDelay())
	fmt.Printf("  suspension  Ls: %v\n", rt.Scale.CumulativeSuspension())
	fmt.Printf("  dependency  Ld: %v\n", rt.Scale.AvgDependencyOverhead())

	fmt.Printf("\nResults: %d aggregation updates reached the sink, 0 duplicates=%v\n",
		sink.Records, sink.Duplicates() == 0)
	fmt.Printf("Post-scaling placement:\n")
	for _, in := range rt.Instances("agg") {
		fmt.Printf("  %-8s owns %2d key groups, processed %6d records\n",
			in.Name(), len(in.Store().Groups()), in.Processed)
	}
	fmt.Printf("\nLatency: pre-scale avg %.2fms, during-scale peak %.2fms\n",
		rt.Latency.AvgIn(0, simtime.Time(simtime.Sec(2))),
		rt.Latency.PeakIn(simtime.Time(simtime.Sec(2)), simtime.Time(simtime.Sec(6))))
}
