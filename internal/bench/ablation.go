package bench

import (
	"fmt"
	"strings"

	"drrs/internal/core"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// This file holds the design-choice ablations DESIGN.md calls out beyond the
// paper's Fig 14: how sensitive DRRS is to its own tuning knobs, and how
// sensitive Megaphone is to its reconfiguration batch size. None of these
// are paper figures; they answer the "why these defaults?" questions a
// downstream user will ask.

// knob is one ablation setting: a tuning option by name and its value. The
// subscale, depth and conc knobs tune full DRRS, batch tunes Megaphone. The
// zero knob is the registered mechanism, and setting maps a knob at its
// registered value to it, so subscale=8 is the registered drrs cell.
type knob struct {
	Name  string
	Value int
}

// registered is each knob's value in the registered mechanism: the paper's,
// which core defaults to (a zero BufferDepth scans 200), and Megaphone's 4.
var registered = map[string]int{"subscale": 8, "depth": 200, "conc": 2, "batch": 4}

// setting is the knob name=v, or the zero knob when v is the registered value.
func setting(name string, v int) knob {
	if v == registered[name] {
		return knob{}
	}
	return knob{Name: name, Value: v}
}

// mechanism builds mech with k set: full DRRS with one option changed, or
// Megaphone with another reconfiguration batch.
func (k knob) mechanism(mech string) scaling.Mechanism {
	opt := core.FullDRRS()
	switch k.Name {
	case "":
		return Mechanisms(mech)
	case "batch":
		return scaling.Megaphone(k.Value)
	case "subscale":
		opt.SubscaleKGs = k.Value
	case "depth":
		opt.BufferDepth = k.Value
	case "conc":
		opt.NodeConcurrency = k.Value
	default:
		panic(fmt.Sprintf("bench: unknown knob %q", k.Name))
	}
	return core.New(opt)
}

// ablation is the figure's four knob sweeps: the DRRS knobs on Twitch (one
// giant subscale degenerates to DR-only, size 1 to per-group scheduling),
// node concurrency on the 4-node sensitivity cluster (where it actually
// binds), and Megaphone's batch on Twitch (suspension grows with it, scaling
// duration and propagation shrink).
var ablation = []struct {
	title, scenario, mechanism, knob string
	vals                             []int
}{
	{"DRRS subscale size (Twitch)", "twitch", "drrs", "subscale", []int{1, 4, 8, 32, 128}},
	{"DRRS record-scheduling buffer depth (Twitch)", "twitch", "drrs", "depth", []int{1, 20, 200}},
	{"DRRS node concurrency (sensitivity cluster)", "sensitivity", "drrs", "conc", []int{1, 2, 4}},
	{"Megaphone batch size (Twitch)", "twitch", "megaphone", "batch", []int{1, 4, 16, 111}},
}

// Ablation runs the four sweeps as one figure, with a row per point labelled
// by its setting ("subscale=8").
func (h Harness) Ablation(seed int64) (FigureResult, error) {
	var cells []cell
	for _, sw := range ablation {
		for _, v := range sw.vals {
			cells = append(cells, cell{Scenario: sw.scenario, Seed: seed, Mechanism: sw.mechanism, Knob: setting(sw.knob, v)})
		}
	}
	outs, err := h.outcomes(cells)
	if err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{Title: "ablation", Rows: make(map[string]Row)}
	var tables []string
	for _, sw := range ablation {
		var labels []string
		for _, v := range sw.vals {
			label := fmt.Sprintf("%s=%d", sw.knob, v)
			labels = append(labels, label)
			res.Rows[label] = sweepRow(outs[0])
			outs = outs[1:]
		}
		tables = append(tables, FormatSweep(sw.title, labels, res.Rows))
	}
	res.Text = strings.Join(tables, "\n")
	return res, nil
}

// sweepRow projects one run onto a row: latency and scaling period from the
// first request on, delays from the first wave.
func sweepRow(o Outcome) Row {
	return Row{
		PeakMs:       Stat{Mean: o.PeakIn(o.ScaleAt, o.EndAt)},
		AvgMs:        Stat{Mean: o.AvgIn(o.ScaleAt, o.EndAt)},
		ScalingSec:   Stat{Mean: o.ScalingPeriod().Seconds()},
		SuspensionMs: Stat{Mean: o.Scale.CumulativeSuspension().Millis()},
		PropDelayMs:  Stat{Mean: o.Scale.CumulativePropagationDelay().Millis()},
		MigrationSec: Stat{Mean: o.Scale.MigrationDuration().Seconds()},
	}
}

// FormatSweep renders the rows named by labels, in order, as a table.
func FormatSweep(title string, labels []string, rows map[string]Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %12s %12s %12s\n",
		"", "peak(ms)", "avg(ms)", "scaling(s)", "susp(ms)", "prop(ms)", "migration(s)")
	for _, l := range labels {
		r := rows[l]
		fmt.Fprintf(&b, "%-14s %10.1f %10.1f %10.2f %12.1f %12.1f %12.2f\n",
			l, r.PeakMs.Mean, r.AvgMs.Mean, r.ScalingSec.Mean, r.SuspensionMs.Mean, r.PropDelayMs.Mean, r.MigrationSec.Mean)
	}
	return b.String()
}

// Sparkline renders a latency timeline as a compact ASCII strip for the
// figure reporters (the closest a terminal gets to the paper's plots).
func Sparkline(o Outcome, bucket simtime.Duration, from, to simtime.Time) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	pts := o.Latency.Series.Downsample(bucket)
	var max float64
	var vals []float64
	for _, p := range pts {
		if p.At < from || p.At >= to {
			continue
		}
		vals = append(vals, p.V)
		if p.V > max {
			max = p.V
		}
	}
	if max == 0 || len(vals) == 0 {
		return ""
	}
	var b strings.Builder
	for _, v := range vals {
		idx := int(v / max * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	fmt.Fprintf(&b, "  (max %.0fms)", max)
	return b.String()
}
