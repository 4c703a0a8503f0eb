package bench

import (
	"fmt"
	"sort"
	"strings"

	"drrs/internal/fitness"
	"drrs/internal/simtime"
)

// ControlFigure compares mechanisms under reactive driving on one
// closed-loop scenario. Unlike the scripted figures, the mechanism's own
// speed feeds back into the run: a slow mechanism finishes its scale-out
// late, so the policy sees backlog for longer, decides differently, and may
// supersede it mid-flight — mechanism rankings here are outcomes of the
// whole control loop, not of an identical fixed schedule.
func (h Harness) ControlFigure(workloadName string, mechs []string, seeds []int64) (FigureResult, error) {
	if err := checkSeeds("Control", seeds); err != nil {
		return FigureResult{}, err
	}
	if len(mechs) == 0 {
		mechs = []string{"drrs", "meces", "megaphone"}
	}
	outs, err := h.compare(workloadName, mechs, seeds)
	if err != nil {
		return FigureResult{}, err
	}
	sc, _ := h.Scenario(workloadName, 0) // for the header; compare just applied the same overrides
	from, to := measureWindow(outs)

	var b strings.Builder
	fmt.Fprintf(&b, "Control (%s, %s) — mechanisms under reactive driving, window [%v, %v]\n",
		workloadName, sc.ProgramString(), from, to)
	fmt.Fprintf(&b, "%-12s %18s %18s %12s %12s %10s %10s %12s %8s\n",
		"", "Peak(ms)", "Average(ms)", "Scaling(s)", "Susp(ms)", "decisions", "superseded", "ops done", "finalP")
	rows := make(map[string]Row)
	for _, mech := range mechs {
		var peak, avg, dur, susp, dec, sup []float64
		opsDone, opsAll := 0, 0
		finalP := make(map[int]int)
		for _, o := range outs[mech] {
			peak = append(peak, o.PeakIn(from, to))
			avg = append(avg, o.AvgIn(from, to))
			dur = append(dur, o.TotalScalingPeriod().Seconds())
			susp = append(susp, o.TotalSuspension().Millis())
			dec = append(dec, float64(len(o.Decisions)))
			nSup := 0
			for _, d := range o.Decisions {
				if d.Superseded {
					nSup++
				}
			}
			sup = append(sup, float64(nSup))
			for i := range o.Waves {
				opsAll++
				if o.Waves[i].Done {
					opsDone++
				}
			}
			finalP[FinalParallelism(o)]++
		}
		r := Row{
			PeakMs:       NewStat(peak),
			AvgMs:        NewStat(avg),
			ScalingSec:   NewStat(dur),
			SuspensionMs: NewStat(susp),
			Control: &ControlStats{
				Decisions:        NewStat(dec),
				Superseded:       NewStat(sup),
				OpsDone:          opsDone,
				OpsTotal:         opsAll,
				FinalParallelism: finalP,
			},
			Faults:  faultStats(outs[mech]),
			Fitness: fitnessStats(outs[mech], fitness.DefaultWeights()),
		}
		rows[mech] = r
		fmt.Fprintf(&b, "%-12s %18s %18s %12s %12s %10s %10s %9d/%d %8s\n",
			mech, r.PeakMs, r.AvgMs, r.ScalingSec, r.SuspensionMs,
			fmtMean(dec), fmtMean(sup), opsDone, opsAll, fmtFinalP(finalP))
	}

	b.WriteString("\nlatency timelines (1 s means):\n")
	for _, mech := range mechs {
		if len(outs[mech]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %s\n", mech, Sparkline(outs[mech][0], simtime.Second, from, to))
	}

	b.WriteString("\ndecision audit trail (first seed):\n")
	for _, mech := range mechs {
		if len(outs[mech]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:\n%s", mech, FormatDecisions(outs[mech][0]))
	}
	return FigureResult{Title: "control/" + workloadName, Text: b.String(), Rows: rows}, nil
}

// FinalParallelism reports where the run's control loop left the operator:
// the target of the last completed operation, else the parallelism the
// first decision observed (the initial one), else 0 — a run whose policy
// never decided anything (rendered as "init" in the figure). Exported for
// the policy-search counterfactual diff.
func FinalParallelism(o Outcome) int {
	p := 0
	if len(o.Decisions) > 0 {
		p = o.Decisions[0].From
	}
	for i := range o.Waves {
		w := &o.Waves[i]
		if p == 0 {
			p = w.FromParallelism
		}
		if w.Done {
			p = w.Wave.NewParallelism
		}
	}
	return p
}

// FormatDecisions renders a run's audit trail as an indented table — the
// per-decision record of what the policy saw and what came of it.
func FormatDecisions(o Outcome) string {
	if len(o.Decisions) == 0 {
		return "  (no decisions)\n"
	}
	var b strings.Builder
	for _, d := range o.Decisions {
		status := "dropped"
		switch {
		case d.Done:
			status = fmt.Sprintf("done at %v", d.DoneAt)
		case d.Launched:
			status = "in flight at horizon"
		}
		flag := ""
		if d.Superseded {
			flag = " [superseded in-flight op]"
		}
		if d.Forced {
			flag += " [forced]"
		}
		fmt.Fprintf(&b, "  #%d %8v %s %2d→%-2d %-22s %s%s\n",
			d.Seq, d.At, d.Policy, d.From, d.To, status, d.Reason, flag)
	}
	return b.String()
}

func fmtMean(vals []float64) string {
	return fmt.Sprintf("%.1f", NewStat(vals).Mean)
}

// fmtFinalP renders the final-parallelism histogram compactly ("9" when all
// seeds agree, "9×2 11×1" otherwise; 0 — no decisions at all — as "init").
func fmtFinalP(hist map[int]int) string {
	label := func(p int) string {
		if p == 0 {
			return "init"
		}
		return fmt.Sprintf("%d", p)
	}
	var ps []int
	for p := range hist {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	if len(ps) == 1 {
		return label(ps[0])
	}
	var parts []string
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("%s×%d", label(p), hist[p]))
	}
	return strings.Join(parts, " ")
}
