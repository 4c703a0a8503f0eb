package bench

import (
	"fmt"
	"strings"

	"drrs/internal/core"
	"drrs/internal/scaling"
	"drrs/internal/scaling/megaphone"
	"drrs/internal/simtime"
)

// This file holds the design-choice ablations DESIGN.md calls out beyond the
// paper's Fig 14: how sensitive DRRS is to its own tuning knobs, and how
// sensitive Megaphone is to its reconfiguration batch size. None of these
// are paper figures; they answer the "why these defaults?" questions a
// downstream user will ask.

// SweepPoint is one configuration's outcome in a knob sweep.
type SweepPoint struct {
	Label        string
	PeakMs       float64
	AvgMs        float64
	ScalingSec   float64
	SuspMs       float64
	PropMs       float64
	MigrationSec float64
}

// sweep runs one knob sweep: per setting, a fresh registered scenario driven
// by the hand-built mechanism point returns (with the setting's label). The
// runs are sequential: RunSpec names mechanisms, and these have no name.
func (h Harness) sweep(scenario string, seed int64, vals []int, point func(v int) (string, scaling.Mechanism)) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(vals))
	for _, v := range vals {
		sc, err := h.Scenario(scenario, seed)
		if err != nil {
			return nil, err
		}
		label, mech := point(v)
		o := sc.Run(mech)
		out = append(out, SweepPoint{
			Label:        label,
			PeakMs:       o.PeakIn(o.ScaleAt, o.EndAt),
			AvgMs:        o.AvgIn(o.ScaleAt, o.EndAt),
			ScalingSec:   o.ScalingPeriod().Seconds(),
			SuspMs:       o.Scale.CumulativeSuspension().Millis(),
			PropMs:       o.Scale.CumulativePropagationDelay().Millis(),
			MigrationSec: o.Scale.MigrationDuration().Seconds(),
		})
	}
	return out, nil
}

// drrsWith builds a full-DRRS mechanism with one option changed.
func drrsWith(set func(*core.Options)) scaling.Mechanism {
	opt := core.FullDRRS()
	set(&opt)
	return core.New(opt)
}

// subscaleSize varies full DRRS's subscale granularity (key groups per
// subscale). The paper's default is small subscales; degenerate settings
// recover DR-only behaviour (one giant subscale) or pure per-group scheduling
// (size 1).
func subscaleSize(size int) (string, scaling.Mechanism) {
	return fmt.Sprintf("subscale=%d", size), drrsWith(func(o *core.Options) { o.SubscaleKGs = size })
}

// bufferDepth varies Record Scheduling's intra-channel buffer (the paper
// fixes 200 records ≈ 200 KB per scaling instance).
func bufferDepth(d int) (string, scaling.Mechanism) {
	return fmt.Sprintf("depth=%d", d), drrsWith(func(o *core.Options) { o.BufferDepth = d })
}

// nodeConcurrency varies the subscale scheduler's per-node concurrency
// threshold (the paper fixes 2 "to avoid potential resource contention").
func nodeConcurrency(l int) (string, scaling.Mechanism) {
	return fmt.Sprintf("conc=%d", l), drrsWith(func(o *core.Options) { o.NodeConcurrency = l })
}

// megaphoneBatch varies Megaphone's reconfiguration bin size: its fundamental
// trade-off between suspension (grows with batch) and scaling duration /
// propagation (shrink with batch).
func megaphoneBatch(b int) (string, scaling.Mechanism) {
	return fmt.Sprintf("batch=%d", b), &megaphone.Mechanism{BatchKGs: b}
}

// Ablation runs the four sweeps as one figure: the DRRS knobs on Twitch, node
// concurrency on the 4-node sensitivity cluster (where it actually binds).
func (h Harness) Ablation(seed int64) (FigureResult, error) {
	res := FigureResult{Title: "ablation"}
	var tables []string
	for _, sw := range []struct {
		title, scenario string
		vals            []int
		point           func(int) (string, scaling.Mechanism)
	}{
		{"DRRS subscale size (Twitch)", "twitch", []int{1, 4, 8, 32, 128}, subscaleSize},
		{"DRRS record-scheduling buffer depth (Twitch)", "twitch", []int{1, 20, 200}, bufferDepth},
		{"DRRS node concurrency (sensitivity cluster)", "sensitivity", []int{1, 2, 4}, nodeConcurrency},
		{"Megaphone batch size (Twitch)", "twitch", []int{1, 4, 16, 111}, megaphoneBatch},
	} {
		pts, err := h.sweep(sw.scenario, seed, sw.vals, sw.point)
		if err != nil {
			return res, err
		}
		tables = append(tables, FormatSweep(sw.title, pts))
	}
	res.Text = strings.Join(tables, "\n")
	return res, nil
}

// FormatSweep renders sweep points as a table.
func FormatSweep(title string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %12s %12s %12s\n",
		"", "peak(ms)", "avg(ms)", "scaling(s)", "susp(ms)", "prop(ms)", "migration(s)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14s %10.1f %10.1f %10.2f %12.1f %12.1f %12.2f\n",
			p.Label, p.PeakMs, p.AvgMs, p.ScalingSec, p.SuspMs, p.PropMs, p.MigrationSec)
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
