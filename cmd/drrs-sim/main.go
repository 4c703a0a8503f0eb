// Command drrs-sim runs a single workload + scaling-mechanism configuration
// on the simulated engine and prints a run report: latency statistics,
// throughput, and the scaling-delay decomposition (Lp / Ls / Ld).
// drrs-bench runs many simulations; drrs-sim runs exactly one.
//
// Usage:
//
//	drrs-sim -workload twitch -mechanism drrs
//	drrs-sim -workload q7 -mechanism megaphone -seed 7
//	drrs-sim -workload flash-crowd -mechanism drrs
//	drrs-sim -workload flash-crowd-reactive -mechanism meces
//	drrs-sim -workload diurnal -mechanism drrs -driver controller -policy predictive
//	drrs-sim -workload q8 -mechanism no-scale
//	drrs-sim -workload million-users -seed 1 -record mu.trace
//	drrs-sim -workload million-users -seed 1 -replay mu.trace
//	drrs-sim -workload flash-crowd-reactive -seed 5 -counterfactual "k=2:noop"
//
// -workload accepts any registered scenario (drrs-bench -list enumerates
// them); multi-wave scenarios print one report block per wave. Closed-loop
// scenarios (and any scenario forced onto -driver controller) additionally
// print the controller's per-decision audit trail.
//
// The override flags (-topology, -placement, -driver, -policy, -faults,
// -replay) are shared with drrs-bench; -replay feeds a recorded trace in as
// the run's traffic. -record captures the run's arrival stream to a trace
// file (custom-job scenarios only). The report always ends with the outcome
// digest, so a recorded run and its replay can be compared bit-for-bit from
// the shell.
//
// -counterfactual runs the closed-loop scenario twice — unforced, then with
// the intervention spec applied to the controller's decision sequence
// ("k=2:noop", "k=1:target=12", "all:delay=2s"; entries ';'-separated) — and
// prints a side-by-side outcome diff with both decision audit trails in
// place of the report.
//
// Every bad name or flag combination is a usage error: exit 2 and one line
// on stderr, before anything runs.
//
// Mechanisms: drrs, drrs-dr, drrs-schedule, drrs-subscale, meces, megaphone,
// otfs, otfs-allatonce, stop-restart, unbound, no-scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"drrs/internal/bench"
	"drrs/internal/bench/cliopts"
	"drrs/internal/control"
	"drrs/internal/fitness"
	"drrs/internal/policysearch"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

func main() {
	workloadName := flag.String("workload", "twitch", "any registered scenario (see drrs-bench -list)")
	mechName := flag.String("mechanism", "drrs", "scaling mechanism (see doc)")
	seed := flag.Int64("seed", 1, "simulation seed")
	var opts cliopts.Common
	opts.Bind(flag.CommandLine)
	record := flag.String("record", "", "record the run's arrival stream to this trace file")
	counterfactual := flag.String("counterfactual", "", "intervention spec (e.g. \"k=2:noop\"): run the scenario with and without it and print the outcome diff")
	verbose := flag.Bool("v", false, "print the run's throughput timeline in 5s buckets")
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "drrs-sim: %v\n", err)
		os.Exit(2)
	}
	if *record != "" && opts.Replay != "" {
		usage(errors.New("-record and -replay are mutually exclusive: a replayed run would just re-record its input trace"))
	}
	if *record != "" && *counterfactual != "" {
		usage(errors.New("-record and -counterfactual are mutually exclusive: a counterfactual runs the scenario twice and records neither"))
	}
	if !slices.Contains(bench.MechanismNames(), *mechName) {
		usage(fmt.Errorf("bench: unknown mechanism %q", *mechName))
	}
	overrides, err := opts.Overrides()
	if err != nil {
		usage(err)
	}
	h := bench.Harness{Overrides: overrides}
	sc, err := h.Scenario(*workloadName, *seed)
	if err != nil {
		usage(err)
	}
	if *record != "" && sc.Traffic == nil {
		usage(fmt.Errorf("bench: scenario %q drives a custom generator; only custom-job scenarios record traces", sc.Name))
	}
	if *counterfactual != "" {
		ivs, err := control.ParseInterventions(*counterfactual)
		if err != nil {
			usage(fmt.Errorf("-counterfactual: %w", err))
		}
		cf, err := policysearch.RunCounterfactual(h, *workloadName, *mechName, *seed, ivs)
		if err != nil {
			usage(err)
		}
		fmt.Print(cf.FormatDiff())
		return
	}

	newMech := func() scaling.Mechanism { return bench.Mechanisms(*mechName) }
	t0 := time.Now() //lint:allow nowallclock wall-clock report column; measured around a finished run
	// Fresh mechanism per wave: multi-wave scenarios rescale repeatedly, and
	// mechanisms carry per-operation state.
	var o bench.Outcome
	recorded := ""
	if *record != "" {
		out, trace := sc.RecordWith(newMech)
		if err := trace.WriteFile(*record); err != nil {
			fmt.Fprintf(os.Stderr, "drrs-sim: -record: %v\n", err)
			os.Exit(1)
		}
		recorded = fmt.Sprintf("%d arrival events to %s", trace.Events(), *record)
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
		fmt.Println("\nthroughput timeline:")
		for _, p := range o.Throughput.Series().Downsample(simtime.Sec(5)) {
			fmt.Printf("  t=%-8v %8.0f rec/s\n", p.At, p.V)
		}
	}
}
