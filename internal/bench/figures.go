package bench

import (
	"fmt"
	"sort"
	"strings"

	"drrs/internal/core"
	"drrs/internal/fitness"
	"drrs/internal/scaling"
	"drrs/internal/scaling/meces"
	"drrs/internal/scaling/megaphone"
	"drrs/internal/scaling/otfs"
	"drrs/internal/scaling/stopre"
	"drrs/internal/scaling/unbound"
	"drrs/internal/simtime"
)

// MechanismNames lists the report names Mechanisms accepts, for flag
// validation and help text.
func MechanismNames() []string {
	return []string{"drrs", "drrs-dr", "drrs-schedule", "drrs-subscale", "meces", "megaphone",
		"otfs", "otfs-allatonce", "stop-restart", "unbound", "no-scale"}
}

// Mechanisms builds a fresh mechanism by report name (fresh per run: the
// implementations carry per-operation state). Unknown names panic.
func Mechanisms(name string) scaling.Mechanism {
	switch name {
	case "drrs":
		return core.New(core.FullDRRS())
	case "drrs-dr":
		return core.New(core.Variant("dr"))
	case "drrs-schedule":
		return core.New(core.Variant("schedule"))
	case "drrs-subscale":
		return core.New(core.Variant("subscale"))
	case "meces":
		return &meces.Mechanism{}
	case "megaphone":
		// A batch of 4 key groups keeps the sequential-round signature while
		// the scaled-down runs stay tractable.
		return &megaphone.Mechanism{BatchKGs: 4}
	case "otfs":
		return &otfs.Mechanism{Fluid: true}
	case "otfs-allatonce":
		return &otfs.Mechanism{Fluid: false}
	case "stop-restart":
		return &stopre.Mechanism{}
	case "unbound":
		return &unbound.Mechanism{}
	case "no-scale":
		return nil
	default:
		panic(fmt.Sprintf("bench: unknown mechanism %q", name))
	}
}

// checkSeeds validates the seed list up front: every figure indexes
// outs[mech][0] for its timeline printers, so an empty list would otherwise
// panic deep inside rendering with an opaque out-of-range error.
func checkSeeds(figure string, seeds []int64) error {
	if len(seeds) == 0 {
		return fmt.Errorf("bench: %s needs at least one seed (got an empty seed list)", figure)
	}
	return nil
}

// FigureResult is one regenerated figure/table: paper-style text plus the
// raw rows for programmatic checks.
type FigureResult struct {
	Title string
	Text  string
	// Rows maps a label ("drrs", "meces", …) to its headline numbers.
	Rows map[string]Row
}

// Row is one mechanism's headline numbers for a figure.
type Row struct {
	PeakMs        Stat
	AvgMs         Stat
	ScalingSec    Stat
	MigrationSec  Stat
	PropDelayMs   Stat
	DepOverheadMs Stat
	SuspensionMs  Stat
	ThroughputDev Stat
	// Control carries the reactive-driving columns; nil outside the control
	// figure (and omitted from -json output there).
	Control *ControlStats `json:",omitempty"`
	// Faults carries the fault-and-recovery columns; nil when no aggregated
	// run was faulted (and omitted from -json output there), so healthy
	// sweeps serialize exactly as before the chaos track.
	Faults *FaultStats `json:",omitempty"`
	// Fitness carries the multi-objective fitness components and the weighted
	// score, so -json artifacts are self-describing inputs to policy search.
	Fitness *FitnessStats `json:",omitempty"`
}

// ControlStats are one mechanism's closed-loop headline numbers: how the
// control loop behaved, not just what latency resulted.
type ControlStats struct {
	// Decisions and Superseded aggregate per-run decision counts.
	Decisions  Stat
	Superseded Stat
	// OpsDone / OpsTotal count launched operations that completed across all
	// seeds.
	OpsDone, OpsTotal int
	// FinalParallelism histograms where the loop left the operator per seed
	// (key 0 = the policy never decided; the operator kept its initial
	// parallelism).
	FinalParallelism map[int]int
}

// FaultStats aggregates the per-run FaultSummary across seeds — the
// machine-readable face of the chaos track (drrs-bench -json), where the
// summary previously surfaced only in -list text.
type FaultStats struct {
	// Events / Crashes / FailedTransfers / RetriedTransfers / RecoveredGroups
	// / LostGroups / Replans / RecordsLost / RecoveryMs aggregate the
	// FaultSummary fields of the same names across the mechanism's runs.
	Events           Stat
	Crashes          Stat
	FailedTransfers  Stat
	RetriedTransfers Stat
	RecoveredGroups  Stat
	LostGroups       Stat
	Replans          Stat
	RecordsLost      Stat
	RecoveryMs       Stat
}

// faultStats aggregates runs' fault summaries; nil when none was faulted.
func faultStats(runs []Outcome) *FaultStats {
	var events, crashes, failed, retried, recovered, lost, replans, records, recovery []float64
	any := false
	for _, o := range runs {
		f := o.Faults
		if f == nil {
			continue
		}
		any = true
		events = append(events, float64(f.Events))
		crashes = append(crashes, float64(f.Crashes))
		failed = append(failed, float64(f.FailedTransfers))
		retried = append(retried, float64(f.RetriedTransfers))
		recovered = append(recovered, float64(f.RecoveredGroups))
		lost = append(lost, float64(f.LostGroups))
		replans = append(replans, float64(f.Replans))
		records = append(records, float64(f.RecordsLost))
		recovery = append(recovery, f.RecoveryMs)
	}
	if !any {
		return nil
	}
	return &FaultStats{
		Events:           NewStat(events),
		Crashes:          NewStat(crashes),
		FailedTransfers:  NewStat(failed),
		RetriedTransfers: NewStat(retried),
		RecoveredGroups:  NewStat(recovered),
		LostGroups:       NewStat(lost),
		Replans:          NewStat(replans),
		RecordsLost:      NewStat(records),
		RecoveryMs:       NewStat(recovery),
	}
}

// measureWindow computes the common statistics window the paper uses: from
// the scaling request to the longest observed scaling period among the
// compared mechanisms. Runs that never scaled — no-scale baselines, and
// controller runs whose policy never launched an operation (ScaleAt stays
// 0) — contribute no window edge; folding their zero ScaleAt in would drag
// the window back into warmup for every mechanism in the figure.
func measureWindow(outs map[string][]Outcome) (simtime.Time, simtime.Time) {
	var from, to simtime.Time
	first := true
	for _, runs := range outs {
		for _, o := range runs {
			if o.Mechanism == "no-scale" || o.ScaleAt == 0 {
				continue
			}
			if first || o.ScaleAt < from {
				from = o.ScaleAt
				first = false
			}
			end := o.StabilizedAt
			if !o.Stabilized || end > o.EndAt {
				end = o.EndAt
			}
			if end > to {
				to = end
			}
		}
	}
	return from, to
}

// compare runs one registered scenario under several mechanisms across seeds
// (in parallel across Workers; each run is independently deterministic) and
// groups the outcomes by mechanism.
func (h Harness) compare(scenario string, mechs []string, seeds []int64) (map[string][]Outcome, error) {
	specs := make([]RunSpec, 0, len(mechs)*len(seeds))
	for _, mech := range mechs {
		for _, seed := range seeds {
			sc, err := h.Scenario(scenario, seed)
			if err != nil {
				return nil, err
			}
			specs = append(specs, RunSpec{Scenario: sc, Mechanism: mech})
		}
	}
	results := RunParallel(specs, h.Workers)
	outs := make(map[string][]Outcome)
	for i, sp := range specs {
		outs[sp.Mechanism] = append(outs[sp.Mechanism], results[i])
	}
	return outs, nil
}

func rowsFrom(outs map[string][]Outcome) map[string]Row {
	from, to := measureWindow(outs)
	rows := make(map[string]Row)
	for _, mech := range sortedKeys(outs) {
		runs := outs[mech]
		var peak, avg, dur, mig, prop, dep, susp []float64
		for _, o := range runs {
			peak = append(peak, o.PeakIn(from, to))
			avg = append(avg, o.AvgIn(from, to))
			dur = append(dur, o.ScalingPeriod().Seconds())
			mig = append(mig, o.Scale.MigrationDuration().Seconds())
			prop = append(prop, o.Scale.CumulativePropagationDelay().Millis())
			dep = append(dep, o.Scale.AvgDependencyOverhead().Millis())
			susp = append(susp, o.Scale.CumulativeSuspension().Millis())
		}
		rows[mech] = Row{
			PeakMs:        NewStat(peak),
			AvgMs:         NewStat(avg),
			ScalingSec:    NewStat(dur),
			MigrationSec:  NewStat(mig),
			PropDelayMs:   NewStat(prop),
			DepOverheadMs: NewStat(dep),
			SuspensionMs:  NewStat(susp),
			Faults:        faultStats(runs),
			Fitness:       fitnessStats(runs, fitness.DefaultWeights()),
		}
	}
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Fig2 regenerates the motivation experiment: Unbound vs OTFS (generalized
// on-the-fly scaling with fluid migration) vs No Scale on the Twitch
// workload under a fixed input rate.
func (h Harness) Fig2(seeds []int64) (FigureResult, error) {
	if err := checkSeeds("Fig2", seeds); err != nil {
		return FigureResult{}, err
	}
	outs, err := h.compare("twitch", []string{"unbound", "otfs", "no-scale"}, seeds)
	if err != nil {
		return FigureResult{}, err
	}
	from, to := measureWindow(outs)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2 — Unbound vs OTFS vs No Scale (Twitch), window [%v, %v]\n", from, to)
	fmt.Fprintf(&b, "%-10s %20s %20s\n", "", "Peak Latency(ms)", "Average Latency(ms)")
	rows := make(map[string]Row)
	for _, mech := range []string{"otfs", "unbound", "no-scale"} {
		var peak, avg []float64
		for _, o := range outs[mech] {
			peak = append(peak, o.PeakIn(from, to))
			avg = append(avg, o.AvgIn(from, to))
		}
		r := Row{PeakMs: NewStat(peak), AvgMs: NewStat(avg)}
		rows[mech] = r
		fmt.Fprintf(&b, "%-10s %20s %20s\n", mech, r.PeakMs, r.AvgMs)
	}
	return FigureResult{Title: "fig2", Text: b.String(), Rows: rows}, nil
}

// HeadToHead runs the Fig 10–13 experiment set for one workload (q7, q8,
// twitch) against Meces and Megaphone, producing all four figures' data from
// the same runs, as the paper does.
func (h Harness) HeadToHead(workloadName string, seeds []int64) (FigureResult, error) {
	if err := checkSeeds("HeadToHead", seeds); err != nil {
		return FigureResult{}, err
	}
	outs, err := h.compare(workloadName, []string{"drrs", "meces", "megaphone"}, seeds)
	if err != nil {
		return FigureResult{}, err
	}
	rows := rowsFrom(outs)
	from, to := measureWindow(outs)

	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 (%s) — End-to-End Latency, window [%v, %v]\n", workloadName, from, to)
	fmt.Fprintf(&b, "%-10s %20s %20s %16s %16s\n", "", "Peak(ms)", "Average(ms)", "Scaling(s)", "Migration(s)")
	for _, mech := range []string{"drrs", "meces", "megaphone"} {
		r := rows[mech]
		fmt.Fprintf(&b, "%-10s %20s %20s %16s %16s\n", mech, r.PeakMs, r.AvgMs, r.ScalingSec, r.MigrationSec)
	}
	b.WriteString("\nlatency timelines (1 s means):\n")
	for _, mech := range []string{"drrs", "meces", "megaphone"} {
		if len(outs[mech]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %s\n", mech, Sparkline(outs[mech][0], simtime.Second, from, to))
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "Fig 11 (%s) — Throughput (records/s) timeline (1 s buckets, during scaling)\n", workloadName)
	for _, mech := range []string{"drrs", "meces", "megaphone"} {
		if len(outs[mech]) == 0 {
			continue
		}
		o := outs[mech][0]
		pts := o.Throughput.Series().Slice(from, to)
		fmt.Fprintf(&b, "%-10s", mech)
		for i, p := range pts {
			if i%2 == 0 { // compact
				fmt.Fprintf(&b, " %6.0f", p.V)
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "Fig 12 (%s) — Cumulative Propagation Delay / Avg Dependency Overhead (ms)\n", workloadName)
	fmt.Fprintf(&b, "%-10s %20s %20s\n", "", "Prop. Delay", "Dep. Overhead")
	for _, mech := range []string{"drrs", "meces", "megaphone"} {
		r := rows[mech]
		fmt.Fprintf(&b, "%-10s %20s %20s\n", mech, r.PropDelayMs, r.DepOverheadMs)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "Fig 13 (%s) — Cumulative Suspension Time (ms)\n", workloadName)
	for _, mech := range []string{"drrs", "meces", "megaphone"} {
		r := rows[mech]
		fmt.Fprintf(&b, "%-10s %20s\n", mech, r.SuspensionMs)
	}
	if wl := workloadName; wl == "q7" {
		// The paper's §V-B Meces statistic: sub-key-group re-fetch counts.
		for _, o := range outs["meces"] {
			if m, ok := o.MechRef.(*meces.Mechanism); ok {
				mean, max := m.FetchStats()
				fmt.Fprintf(&b, "\nMeces back-and-forth (Q7): mean %.2f transfers/sub-key-group, max %d\n", mean, max)
				break
			}
		}
	}
	return FigureResult{Title: "fig10-13/" + workloadName, Text: b.String(), Rows: rows}, nil
}

// Fig14 regenerates the ablation: full DRRS vs DR-only vs Schedule-only vs
// Subscale-only on the Twitch workload.
func (h Harness) Fig14(seeds []int64) (FigureResult, error) {
	if err := checkSeeds("Fig14", seeds); err != nil {
		return FigureResult{}, err
	}
	outs, err := h.compare("twitch", []string{"drrs", "drrs-dr", "drrs-schedule", "drrs-subscale"}, seeds)
	if err != nil {
		return FigureResult{}, err
	}
	rows := rowsFrom(outs)
	from, to := measureWindow(outs)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 — DRRS mechanism ablation (Twitch), window [%v, %v]\n", from, to)
	fmt.Fprintf(&b, "%-15s %20s %20s\n", "", "Peak(ms)", "Average(ms)")
	for _, mech := range []string{"drrs", "drrs-dr", "drrs-schedule", "drrs-subscale"} {
		r := rows[mech]
		fmt.Fprintf(&b, "%-15s %20s %20s\n", mech, r.PeakMs, r.AvgMs)
	}
	return FigureResult{Title: "fig14", Text: b.String(), Rows: rows}, nil
}

// MultiWave regenerates the multi-wave track for one registered scenario:
// every mechanism runs the scenario's full wave program (e.g. scale-out then
// scale-back), and the table reports each wave's scaling period, migration
// duration, suspension, and propagation delay separately — the per-wave
// decomposition single-wave figures cannot show.
func (h Harness) MultiWave(workloadName string, mechs []string, seeds []int64) (FigureResult, error) {
	if err := checkSeeds("MultiWave", seeds); err != nil {
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
	fmt.Fprintf(&b, "Multi-wave (%s, waves %s) — per-wave scaling metrics, window [%v, %v]\n",
		workloadName, sc.ProgramString(), from, to)
	fmt.Fprintf(&b, "%-16s %20s %20s\n", "", "Peak(ms)", "Average(ms)")
	rows := make(map[string]Row)
	for _, mech := range mechs {
		var peak, avg []float64
		for _, o := range outs[mech] {
			peak = append(peak, o.PeakIn(from, to))
			avg = append(avg, o.AvgIn(from, to))
		}
		r := Row{PeakMs: NewStat(peak), AvgMs: NewStat(avg)}
		rows[mech] = r
		fmt.Fprintf(&b, "%-16s %20s %20s\n", mech, r.PeakMs, r.AvgMs)
	}
	waves := len(sc.Program())
	for w := 0; w < waves; w++ {
		target := sc.Program()[w].NewParallelism
		fmt.Fprintf(&b, "\nwave %d (→%d instances):\n", w, target)
		fmt.Fprintf(&b, "%-16s %16s %16s %16s %16s %10s\n",
			"", "Scaling(s)", "Migration(s)", "Susp(ms)", "Prop(ms)", "done")
		for _, mech := range mechs {
			var dur, mig, susp, prop []float64
			done := 0
			for _, o := range outs[mech] {
				if w >= len(o.Waves) || o.Waves[w].Scale == nil {
					continue
				}
				wo := o.Waves[w]
				dur = append(dur, wo.ScalingPeriod().Seconds())
				mig = append(mig, wo.Scale.MigrationDuration().Seconds())
				susp = append(susp, wo.Scale.CumulativeSuspension().Millis())
				prop = append(prop, wo.Scale.CumulativePropagationDelay().Millis())
				if wo.Done {
					done++
				}
			}
			r := Row{
				ScalingSec:   NewStat(dur),
				MigrationSec: NewStat(mig),
				SuspensionMs: NewStat(susp),
				PropDelayMs:  NewStat(prop),
			}
			rows[fmt.Sprintf("%s@w%d", mech, w)] = r
			fmt.Fprintf(&b, "%-16s %16s %16s %16s %16s %6d/%d\n",
				mech, r.ScalingSec, r.MigrationSec, r.SuspensionMs, r.PropDelayMs,
				done, len(outs[mech]))
		}
	}
	b.WriteString("\nlatency timelines (1 s means):\n")
	for _, mech := range mechs {
		if len(outs[mech]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %s\n", mech, Sparkline(outs[mech][0], simtime.Second, from, to))
	}
	return FigureResult{Title: "multiwave/" + workloadName, Text: b.String(), Rows: rows}, nil
}

// Sweep fans every (scenario × mechanism × seed) combination out across the
// worker pool and reports one aggregated row per (scenario, mechanism) pair —
// the bulk comparison harness for registered scenarios beyond the paper's
// fixed figure set.
func (h Harness) Sweep(scenarioNames []string, mechs []string, seeds []int64) (FigureResult, error) {
	if err := checkSeeds("Sweep", seeds); err != nil {
		return FigureResult{}, err
	}
	if len(scenarioNames) == 0 {
		scenarioNames = ScenarioNames()
	}
	if len(mechs) == 0 {
		mechs = []string{"drrs", "meces", "megaphone"}
	}
	var specs []RunSpec
	type cell struct{ scenario, mech string }
	var cells []cell
	for _, scn := range scenarioNames {
		for _, mech := range mechs {
			for _, seed := range seeds {
				sc, err := h.Scenario(scn, seed)
				if err != nil {
					return FigureResult{}, err
				}
				specs = append(specs, RunSpec{Scenario: sc, Mechanism: mech})
				cells = append(cells, cell{scenario: scn, mech: mech})
			}
		}
	}
	results := RunParallel(specs, h.Workers)
	byCell := make(map[cell][]Outcome)
	for i, c := range cells {
		byCell[c] = append(byCell[c], results[i])
	}

	var b strings.Builder
	b.WriteString("Scenario sweep — per (scenario, mechanism) aggregates across seeds\n")
	fmt.Fprintf(&b, "%-16s %-12s %16s %16s %16s %16s %6s\n",
		"scenario", "mechanism", "Peak(ms)", "Average(ms)", "Scaling(s)", "Susp(ms)", "done")
	rows := make(map[string]Row)
	for _, scn := range scenarioNames {
		for _, mech := range mechs {
			runs := byCell[cell{scenario: scn, mech: mech}]
			var peak, avg, dur, susp []float64
			done := 0
			for _, o := range runs {
				from, to := o.ScaleAt, o.EndAt
				peak = append(peak, o.PeakIn(from, to))
				avg = append(avg, o.AvgIn(from, to))
				dur = append(dur, o.ScalingPeriod().Seconds())
				susp = append(susp, o.TotalSuspension().Millis())
				if o.Done {
					done++
				}
			}
			r := Row{
				PeakMs:       NewStat(peak),
				AvgMs:        NewStat(avg),
				ScalingSec:   NewStat(dur),
				SuspensionMs: NewStat(susp),
				Faults:       faultStats(runs),
				Fitness:      fitnessStats(runs, fitness.DefaultWeights()),
			}
			rows[scn+"/"+mech] = r
			fmt.Fprintf(&b, "%-16s %-12s %16s %16s %16s %16s %4d/%d\n",
				scn, mech, r.PeakMs, r.AvgMs, r.ScalingSec, r.SuspensionMs, done, len(runs))
		}
	}
	return FigureResult{Title: "sweep", Text: b.String(), Rows: rows}, nil
}

// SensitivityPoint is one cell of the Fig 15 grid.
type SensitivityPoint struct {
	Mechanism  string
	RatePerSec float64
	StateBytes int
	Skew       float64
	// Deviation is the mean throughput shortfall below the offered rate over
	// the measurement window (records/s; lower is better).
	Deviation float64
}

// Fig15 regenerates the sensitivity grid: input rate × state size × skew →
// throughput deviation for DRRS, Megaphone, and Meces on the simulated
// 4-node cluster. Rates in records/s, stateBytes total across keys.
func (h Harness) Fig15(seed int64, rates []float64, stateBytes []int, skews []float64, mechs []string) ([]SensitivityPoint, FigureResult, error) {
	if len(mechs) == 0 {
		mechs = []string{"drrs", "megaphone", "meces"}
	}
	// The grid cells are independent runs: fan them out across Workers.
	var specs []RunSpec
	var cells []SensitivityPoint
	for _, mech := range mechs {
		for _, skew := range skews {
			for _, sb := range stateBytes {
				for _, rate := range rates {
					sc, err := h.Overrides.Apply(SensitivityScenario(seed, rate, sb, skew))
					if err != nil {
						return nil, FigureResult{}, err
					}
					specs = append(specs, RunSpec{Scenario: sc, Mechanism: mech})
					cells = append(cells, SensitivityPoint{
						Mechanism: mech, RatePerSec: rate, StateBytes: sb, Skew: skew,
					})
				}
			}
		}
	}
	results := RunParallel(specs, h.Workers)
	pts := cells
	for i, o := range results {
		pts[i].Deviation = o.Throughput.DeviationFrom(pts[i].RatePerSec, o.ScaleAt, o.EndAt)
	}
	var b strings.Builder
	b.WriteString("Fig 15 — Sensitivity: throughput deviation (records/s below offered load; lower is better)\n")
	for _, mech := range mechs {
		fmt.Fprintf(&b, "\n%s:\n", mech)
		for _, skew := range skews {
			fmt.Fprintf(&b, "  skew=%.1f\n", skew)
			fmt.Fprintf(&b, "    %12s", "state\\rate")
			for _, rate := range rates {
				fmt.Fprintf(&b, " %8.0f", rate)
			}
			b.WriteString("\n")
			for _, sb := range stateBytes {
				fmt.Fprintf(&b, "    %10dMB", sb>>20)
				for _, rate := range rates {
					for _, p := range pts {
						if p.Mechanism == mech && p.Skew == skew && p.StateBytes == sb && p.RatePerSec == rate {
							fmt.Fprintf(&b, " %8.0f", p.Deviation)
						}
					}
				}
				b.WriteString("\n")
			}
		}
	}
	return pts, FigureResult{Title: "fig15", Text: b.String()}, nil
}
