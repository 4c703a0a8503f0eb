// Command drrs-sim runs a single workload + scaling-mechanism configuration
// on the simulated engine and prints a run report: latency statistics,
// throughput, the scaling-delay decomposition (Lp / Ls / Ld), and per-
// instance state placement.
//
// Usage:
//
//	drrs-sim -workload twitch -mechanism drrs
//	drrs-sim -workload q7 -mechanism megaphone -seed 7
//	drrs-sim -workload flash-crowd -mechanism drrs
//	drrs-sim -workload flash-crowd-reactive -mechanism meces
//	drrs-sim -workload diurnal -mechanism drrs -driver controller -policy predictive
//	drrs-sim -workload q8 -mechanism no-scale
//	drrs-sim -workload million-users -record mu.trace
//	drrs-sim -workload million-users -replay mu.trace
//
// -workload accepts any registered scenario (drrs-bench -list enumerates
// them); multi-wave scenarios print one report block per wave. Closed-loop
// scenarios (and any scenario forced onto -driver controller) additionally
// print the controller's per-decision audit trail.
//
// The override flags (-topology, -placement, -driver, -policy, -faults,
// -record, -replay) are shared with drrs-bench; -record captures the run's
// arrival stream to a trace file and -replay feeds a recorded one back. The
// report always ends with the outcome digest, so two runs can be compared
// bit-for-bit from the shell.
//
// Mechanisms: drrs, drrs-dr, drrs-schedule, drrs-subscale, meces, megaphone,
// otfs, otfs-allatonce, stop-restart, unbound, no-scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"drrs/internal/bench"
	"drrs/internal/bench/cliopts"
	"drrs/internal/fitness"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

func main() {
	workloadName := flag.String("workload", "twitch", "any registered scenario (see drrs-bench -list)")
	mechName := flag.String("mechanism", "drrs", "scaling mechanism (see doc)")
	seed := flag.Int64("seed", 1, "simulation seed")
	var opts cliopts.Common
	opts.Bind(flag.CommandLine)
	verbose := flag.Bool("v", false, "print the post-run instance table")
	flag.Parse()

	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "drrs-sim: %v\n", r)
			os.Exit(2)
		}
	}()

	overrides, err := opts.Overrides()
	if err != nil {
		fmt.Fprintf(os.Stderr, "drrs-sim: %v\n", err)
		os.Exit(2)
	}
	sc, err := overrides.Apply(bench.ScenarioByName(*workloadName, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "drrs-sim: %v\n", err)
		os.Exit(2)
	}
	newMech := func() scaling.Mechanism { return bench.Mechanisms(*mechName) }
	t0 := time.Now() //lint:allow nowallclock wall-clock report column; measured around a finished run
	// Fresh mechanism per wave: multi-wave scenarios rescale repeatedly, and
	// mechanisms carry per-operation state.
	var o bench.Outcome
	recorded := ""
	if opts.Record != "" {
		out, trace := sc.RecordWith(newMech)
		if err := trace.WriteFile(opts.Record); err != nil {
			fmt.Fprintf(os.Stderr, "drrs-sim: -record: %v\n", err)
			os.Exit(1)
		}
		recorded = fmt.Sprintf("%d arrival events to %s", trace.Events(), opts.Record)
		o = out
	} else {
		o = sc.RunWith(newMech)
	}
	wall := time.Since(t0) //lint:allow nowallclock wall-clock report column; measured around a finished run

	fmt.Printf("workload   : %s (seed %d)\n", *workloadName, *seed)
	fmt.Printf("mechanism  : %s\n", o.Mechanism)
	if recorded != "" {
		fmt.Printf("recorded   : %s\n", recorded)
	}
	if opts.Replay != "" {
		fmt.Printf("replayed   : %s\n", opts.Replay)
	}
	fmt.Printf("virtual    : %v simulated in %v wall\n", simtime.Duration(o.EndAt), wall.Round(time.Millisecond))
	if o.Mechanism != "no-scale" {
		// sc is the overridden scenario, so the program line is the run's.
		fmt.Printf("scaling    : %s-driven, program %s, first request at %v, completed=%v\n",
			o.Driver, sc.ProgramString(), o.ScaleAt, o.Done)
		if len(o.Decisions) > 0 {
			fmt.Printf("decisions  :\n%s", bench.FormatDecisions(o))
		}
		for i, w := range o.Waves {
			if w.Scale == nil {
				fmt.Printf("  wave %d   : →%d never launched (previous wave incomplete or past the horizon)\n",
					i, w.Wave.NewParallelism)
				continue
			}
			fmt.Printf("  wave %d   : %d→%d at %v\n", i, w.FromParallelism, w.Wave.NewParallelism, w.ScaleAt)
			fmt.Printf("    duration : %v (migration), %v (latency re-stabilization)\n",
				w.Scale.MigrationDuration(), w.ScalingPeriod())
			fmt.Printf("    Lp prop  : %v cumulative propagation delay\n", w.Scale.CumulativePropagationDelay())
			fmt.Printf("    Ls susp  : %v cumulative suspension\n", w.Scale.CumulativeSuspension())
			fmt.Printf("    Ld dep   : %v average dependency overhead\n", w.Scale.AvgDependencyOverhead())
			fmt.Printf("    migrated : %d key groups\n", w.Scale.UnitsMigrated())
		}
	}
	fmt.Printf("latency    : pre-scale avg %.1fms\n", o.PreAvgMs)
	if o.Mechanism != "no-scale" {
		fmt.Printf("           : during scaling peak %.1fms, avg %.1fms\n",
			o.PeakIn(o.ScaleAt, o.EndAt), o.AvgIn(o.ScaleAt, o.EndAt))
	}
	fmt.Printf("throughput : %d records total\n", o.Throughput.Total())
	if o.TransferredBytes > 0 {
		fmt.Printf("migration  : %.2f MB moved, %.2f MB across rack uplinks\n",
			float64(o.TransferredBytes)/(1<<20), float64(o.CrossRackBytes)/(1<<20))
	}
	if o.InstanceSeconds > 0 {
		c := o.Fitness()
		fmt.Printf("fitness    : score %.2f (SLO %.0fs bad, %.2f MB migrated, %.0f instance-sec, %.0f oscillations)\n",
			c.Score(fitness.DefaultWeights()), c.SLOViolations, c.MigrationMB, c.InstanceSeconds, c.Oscillations)
	}
	// The digest fingerprints the run's full outcome; identical digests mean
	// bit-identical runs (the -record/-replay round-trip check).
	fmt.Printf("digest     : 0x%016x\n", bench.OutcomeDigest(o))
	if *verbose {
		fmt.Println("\ninstances:")
		// Rebuild is not possible post-run; report the throughput timeline.
		for _, p := range o.Throughput.Series().Downsample(simtime.Sec(5)) {
			fmt.Printf("  t=%-8v %8.0f rec/s\n", p.At, p.V)
		}
	}
}
