package main

import (
	"fmt"
	"io"
	"strings"
)

func printContext(w io.Writer, c runContext) {
	fmt.Fprintf(w, "benchmark: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, reps %d, seconds %g\n",
		c.CPUModel, c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.Commit, c.Seed, c.Reps, c.Seconds)
}

func kindLabel(kind string) string {
	switch kind {
	case kindEndToEnd:
		return "end-to-end"
	case kindSim:
		return "exact/virtual"
	case kindCount:
		return "count"
	case kindHost:
		return "host"
	case kindKernel:
		return "kernel"
	case kindProfile:
		return "profile"
	}
	return kind
}

func printMetric(w io.Writer, m metricValue) {
	bound := "-"
	switch {
	case m.Bound > 0 && m.Better == "lower":
		bound = fmt.Sprintf("+%g%%", m.Bound*100)
	case m.Bound > 0:
		bound = fmt.Sprintf("-%g%%", m.Bound*100)
	case m.Kind == kindSim || m.Kind == kindCount:
		bound = "exact"
	}
	line := fmt.Sprintf("  %-44s %16.6g %-5s %-6s %-7s %-13s", m.Name, m.Value, m.Unit, m.Better, bound, kindLabel(m.Kind))
	if m.Q1 != nil && m.N > 1 {
		line += fmt.Sprintf(" passes n=%d q1=%.6g q3=%.6g", m.N, *m.Q1, *m.Q3)
	}
	fmt.Fprintln(w, strings.TrimRight(line, " "))
}

// printReport prints every metric of one workload by name with unit,
// direction and regression bound, then the checks and reconciliation notes.
func printReport(w io.Writer, r *workloadReport, tracePath string) {
	fmt.Fprintf(w, "\n== workload %s: %d cells, %d failed, %d timed passes\n   why: %s\n",
		r.Name, r.Cells, r.CellsFailed, r.TimedPasses, r.Why)
	fmt.Fprintf(w, "  %-44s %16s %-5s %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound", "kind")
	for _, m := range r.EndToEnd {
		printMetric(w, m)
	}
	fmt.Fprintf(w, "  host time is normalised: raw pass wall %.3f s at box speed %.3f of the calibration reference\n", r.WallRawS, r.BoxSpeed)
	if r.Traced {
		var total float64
		for _, m := range r.PerLayer {
			printMetric(w, m)
			if m.Kind == kindProfile {
				total += m.Value
			}
		}
		fmt.Fprintf(w, "  profile total %.3f s = sum of the *.cpu_s buckets; trace: %s\n", total, tracePath)
		for _, pair := range [][2]string{{"simtime.est_busy_s", "simtime.sched_cpu_s"}, {"netsim.est_busy_s", "netsim.cpu_s"}} {
			est, _ := r.metric(pair[0])
			cpu, _ := r.metric(pair[1])
			fmt.Fprintf(w, "  %s %.3f s beside %s %.3f s\n", pair[0], est.Value, pair[1], cpu.Value)
		}
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-62s %s  %s\n", c.Name, verdict, c.Detail)
	}
	for _, c := range r.CellDetail {
		if c.Failed {
			fmt.Fprintf(w, "  failed cell %s: %s\n", c.ID, c.Error)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
