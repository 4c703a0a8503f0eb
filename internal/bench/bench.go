// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section V): the motivation experiment
// (Fig 2), the head-to-head comparison against Meces and Megaphone on
// NEXMark Q7/Q8 and Twitch (Figs 10–13), the mechanism ablation (Fig 14),
// and the cluster sensitivity grid (Fig 15).
//
// Everything runs in virtual time on the simulated engine, with rates,
// windows, state sizes, and migration bandwidth scaled down together
// (documented per scenario and in EXPERIMENTS.md). Absolute milliseconds are
// not comparable to the paper's testbed; orderings and ratios are.
package bench

import (
	"fmt"
	"math"

	"drrs/internal/cluster"
	"drrs/internal/control"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/faults"
	"drrs/internal/metrics"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// Scenario describes one job + a program of scaling waves,
// mechanism-agnostic.
type Scenario struct {
	// Name labels reports.
	Name string
	// Build constructs the job graph (and its sink) for a given seed. Only
	// scenarios with custom generators (twitch, nexmark) use it; custom-job
	// scenarios set Job + Traffic instead and leave Build nil.
	Build func(seed int64) (*dataflow.Graph, *engine.CollectSink)
	// Job and Traffic describe the scenario through the split workload API:
	// when Traffic is non-nil the run builds workload.BuildJob(Job, Traffic).
	Job     workload.JobConfig
	Traffic workload.Traffic
	// ScaleOp is the operator being rescaled.
	ScaleOp string
	// NewParallelism is the post-scaling parallelism of the classic
	// single-wave program; ignored when Waves is set.
	NewParallelism int
	// Waves is the scaling program: wave 0 fires at Warmup+Gap, each later
	// wave Gap after the previous wave completes. Empty means the classic
	// single wave to NewParallelism at Warmup.
	Waves []Wave
	// Driver overrides how the scenario is driven: nil replays the scripted
	// wave program above; a ControllerDriver closes the loop with a control
	// policy deciding when and how far to scale. Scenarios with a Driver
	// keep NewParallelism/Waves as their scripted fallback
	// (Overrides{Driver: "script"} clears Driver).
	Driver *ControllerDriver
	// Warmup is the steady-state period before the first scaling request
	// (the paper uses 300 s; scenarios scale it down).
	Warmup simtime.Duration
	// Measure is how long the run continues after the first scaling request.
	Measure simtime.Duration
	// Setup models physical deployment time.
	Setup simtime.Duration
	// Cluster builds the deployment; nil means TopologyByName("flat").
	Cluster func(s *simtime.Scheduler) *cluster.Cluster
	// Placement names the placement policy installed on the cluster
	// ("spread", "pack", "rack-local"; empty keeps the cluster factory's
	// choice).
	Placement string
	// Faults is the scenario's declarative fault plan (nil = healthy run —
	// no injector, no checkpointer, byte-identical to pre-fault builds).
	Faults *faults.Plan
	// Inspect, when set, runs against the still-live runtime after the
	// outcome is sealed but before RunWith returns — the chaos oracles'
	// window onto end-of-run engine state (per-instance stores, routing
	// tables, sink contents) that the Outcome alone doesn't carry. It must
	// only read; nil on every registered scenario, so digests are untouched.
	Inspect func(*engine.Runtime, *Outcome)
	// Seed drives the run.
	Seed int64
}

// WithPlacement returns a copy of the scenario running under the named
// placement policy — the knob the topology figure flips to contrast
// rack-local against spread scale-out on an otherwise identical run. Like
// every Scenario rewrite, the later one wins (see Overrides).
func (sc Scenario) WithPlacement(policy string) Scenario {
	cluster.PolicyByName(policy) // validate eagerly
	sc.Placement = policy
	return sc
}

// Wave is one scaling operation in a scenario's program.
type Wave struct {
	// Gap delays the wave's scaling request: the first wave fires at
	// Warmup+Gap, later waves Gap after the previous wave completes (waves
	// never overlap — the paper's concurrent-request rule supersedes an
	// in-flight operation, which is a different experiment).
	Gap simtime.Duration
	// NewParallelism is the wave's target parallelism for ScaleOp.
	NewParallelism int
}

// Program returns the scenario's scaling waves (synthesizing the classic
// single wave when Waves is empty).
func (sc Scenario) Program() []Wave {
	if len(sc.Waves) > 0 {
		return sc.Waves
	}
	return []Wave{{NewParallelism: sc.NewParallelism}}
}

// ProgramString renders the driving program for listings: "→12→8" for a
// scripted program, "reactive/<policy>" for a closed-loop scenario.
func (sc Scenario) ProgramString() string {
	if sc.Driver != nil {
		return "reactive/" + sc.Driver.Policy
	}
	s := ""
	for _, w := range sc.Program() {
		s += fmt.Sprintf("→%d", w.NewParallelism)
	}
	return s
}

// WaveOutcome is one wave's measurement within an Outcome.
type WaveOutcome struct {
	Wave Wave
	// FromParallelism is the parallelism the wave scaled from.
	FromParallelism int
	ScaleAt         simtime.Time
	Done            bool
	DoneAt          simtime.Time
	// Scale holds this wave's delay accounting (each wave gets a fresh
	// collector, so Fig 12/13-style metrics stay per-wave).
	Scale *metrics.ScalingMetrics
	// PreAvgMs is the latency level the wave's stabilization is judged
	// against.
	PreAvgMs float64
	// StabilizedAt is the end of this wave's scaling period per the paper's
	// rule, searched only up to the next wave's request.
	StabilizedAt simtime.Time
	Stabilized   bool
}

// ScalingPeriod reports the wave's request-to-restabilization span.
func (w WaveOutcome) ScalingPeriod() simtime.Duration { return w.StabilizedAt.Sub(w.ScaleAt) }

// Outcome is everything measured from one run.
type Outcome struct {
	Mechanism string
	Seed      int64
	// Done reports whether every wave completed.
	Done bool

	// ScaleAt is the first wave's request instant.
	ScaleAt    simtime.Time
	EndAt      simtime.Time
	Latency    *metrics.LatencyTracker
	Throughput *metrics.ThroughputTracker
	// Scale is the first wave's delay accounting (the only wave in the
	// paper's single-wave experiments); later waves live in Waves.
	Scale *metrics.ScalingMetrics
	// Driver names how the run was driven ("script", "controller"; empty for
	// no-scale runs).
	Driver string
	// Waves holds per-wave measurements (nil for no-scale runs). Scripted
	// runs pre-fill one entry per programmed wave; controller runs append
	// one per launched operation.
	Waves []WaveOutcome
	// Decisions is the controller's per-decision audit trail (nil under
	// scripted driving): what the policy saw, what it asked for, and whether
	// the decision superseded an in-flight operation.
	Decisions []control.Decision
	// Events is the number of scheduler events the run fired — what the
	// simulator spent on the run, not what the workload asked of it.
	Events uint64
	// TransferredBytes is total outgoing migration traffic across all nodes;
	// CrossRackBytes is the share that crossed a rack uplink (0 on flat
	// clusters). Their difference is what rack-local placement saves.
	TransferredBytes int64
	CrossRackBytes   int64
	// InstanceSeconds integrates the scaled operator's deployed parallelism
	// over the run clock — the provisioning-cost axis of the fitness score.
	// Derived from the wave timeline after the run, so it is deliberately
	// outside OutcomeDigest: every digest pinned before it existed stays
	// byte-identical.
	InstanceSeconds float64

	// Faults summarizes the fault injection and recovery activity; nil on
	// unfaulted runs, so every digest pinned before the fault layer existed
	// stays valid.
	Faults *FaultSummary

	// PreAvgMs is the average latency over the warmup (pre-scaling level).
	PreAvgMs float64
	// StabilizedAt is the last wave's re-stabilization instant per the
	// paper's rule (latency within 110% of the pre-scaling level for the
	// hold window).
	StabilizedAt simtime.Time
	Stabilized   bool
}

// StabilityHold is the scaled-down version of the paper's 100-second rule.
const StabilityHold = simtime.Duration(5 * simtime.Second)

// RunWith executes the scenario under its Driver — the scripted wave program
// by default, a closed-loop controller when the scenario says so — calling
// newMech once per scaling operation (nil = no scaling). It reads nothing but
// the Scenario value: whoever varies a run rewrites that first (Overrides).
// The scenario's Build must bound its generators to Warmup+Measure (HorizonOf
// helps), or the drain would never terminate.
func (sc Scenario) RunWith(newMech func() scaling.Mechanism) Outcome {
	g, _ := sc.buildGraph()
	// Captured before any scaling mutates the graph: the instance-seconds
	// integration starts from the operator's pre-scale deployment.
	initialP := 0
	if sc.ScaleOp != "" {
		initialP = g.Operator(sc.ScaleOp).Parallelism
	}
	s := simtime.NewScheduler()
	cl := sc.buildCluster(s)
	// Initial deployment consults the cluster's placement policy, operator by
	// operator in topological order (clusters without a policy keep their
	// explicit placement — the legacy scenarios stay bit-for-bit identical).
	// Scale-out instances are placed later, at deployment time, by
	// scaling.Deploy through the same policy.
	for _, op := range g.Topological() {
		cl.PlaceInstances(op, 0, g.Operator(op).Parallelism)
	}
	rt := engine.New(s, g, cl, engine.Config{Seed: sc.Seed})
	rt.Start()

	// The fault injector (and its checkpointer) exists only when a plan does,
	// so healthy runs schedule no extra events and stay byte-identical.
	inj := faults.NewInjector(rt, sc.Faults, sc.Seed)
	inj.Start()

	first := newMech()
	out := Outcome{Mechanism: "no-scale", Seed: sc.Seed, Done: true}
	horizon := simtime.Time(sc.Warmup + sc.Measure)
	r := &run{sc: &sc, rt: rt, sched: s, out: &out, horizon: horizon, inj: inj, newMech: newMech, first: first}
	if first != nil {
		out.Mechanism = first.Name()
		out.Done = false
		if sc.Driver == nil {
			out.Driver = "script"
			driveScript(r)
		} else {
			out.Driver = "controller"
			sc.Driver.drive(r)
		}
	}
	s.RunUntil(horizon)
	rt.StopMarkers()
	inj.Stop() // the checkpoint timer re-arms; stop it or the drain never empties
	s.Run()
	if r.ctl != nil {
		out.Decisions = r.ctl.Decisions()
	}
	out.Faults = faultSummary(inj, rt, out.Decisions)

	out.EndAt = s.Now()
	out.Events = s.Processed()
	out.TransferredBytes = cl.TransferredBytes()
	out.CrossRackBytes = cl.CrossRackBytes()
	out.Latency = rt.Latency
	out.Throughput = rt.Throughput
	out.Scale = rt.Scale
	rt.Scale.CloseAllSuspensions(s.Now())
	out.PreAvgMs = rt.Latency.AvgIn(0, simtime.Time(sc.Warmup))
	if first != nil {
		if len(out.Waves) > 0 && out.Waves[0].Scale != nil {
			out.Scale = out.Waves[0].Scale
			out.ScaleAt = out.Waves[0].ScaleAt
		}
		out.Done = true
		for i := range out.Waves {
			out.Done = out.Done && out.Waves[i].Done
		}
		if len(out.Waves) > 0 {
			stabilizeWaves(rt.Latency, out.Waves, out.PreAvgMs)
			last := &out.Waves[len(out.Waves)-1]
			out.StabilizedAt, out.Stabilized = last.StabilizedAt, last.Stabilized
		}
	}
	if sc.ScaleOp != "" {
		out.InstanceSeconds = instanceSeconds(initialP, out.Waves, out.EndAt)
	}
	if sc.Inspect != nil {
		sc.Inspect(rt, &out)
	}
	return out
}

// buildCluster resolves the run's deployment substrate: the scenario's
// cluster factory, else the flat topology; then the scenario's Placement
// policy on top.
func (sc Scenario) buildCluster(s *simtime.Scheduler) *cluster.Cluster {
	build := sc.Cluster
	if build == nil {
		build = TopologyByName("flat")
	}
	cl := build(s)
	if sc.Placement != "" {
		cl.SetPolicy(cluster.PolicyByName(sc.Placement))
	}
	return cl
}

// stabilizeWaves applies the paper's scaling-period rule per wave on the
// smoothed latency curve: every wave is judged against pre, the warmup
// steady level (the run's pre-scaling level — judging a scale-back against
// the post-scale-out minimum would declare it unstable forever), searching
// from its request up to the next wave's request (or series end for the
// last wave).
func stabilizeWaves(lat *metrics.LatencyTracker, waves []WaveOutcome, pre float64) {
	smoothed := lat.Series.Downsample(simtime.Second)
	for i := range waves {
		wo := &waves[i]
		if wo.Scale == nil {
			// The wave never launched (a previous wave never completed, or
			// the gap chain ran past the horizon).
			continue
		}
		wo.PreAvgMs = pre
		pts := smoothed
		if i+1 < len(waves) && waves[i+1].ScaleAt > 0 {
			bound := waves[i+1].ScaleAt
			hi := len(pts)
			for hi > 0 && pts[hi-1].At >= bound {
				hi--
			}
			pts = pts[:hi]
		}
		wo.StabilizedAt, wo.Stabilized = metrics.StabilizesOn(
			pts, wo.ScaleAt, wo.PreAvgMs, 1.10, StabilityHold)
	}
}

// ScalingPeriod reports the paper's scaling period: request until latency
// re-stabilization. For multi-wave programs this is the first wave's span;
// per-wave periods live in Waves.
func (o Outcome) ScalingPeriod() simtime.Duration {
	if o.Mechanism == "no-scale" {
		return 0
	}
	if len(o.Waves) > 0 {
		return o.Waves[0].ScalingPeriod()
	}
	return o.StabilizedAt.Sub(o.ScaleAt)
}

// TotalSuspension sums suspension time across all waves.
func (o Outcome) TotalSuspension() simtime.Duration {
	var sum simtime.Duration
	for i := range o.Waves {
		if o.Waves[i].Scale != nil {
			sum += o.Waves[i].Scale.CumulativeSuspension()
		}
	}
	return sum
}

// TotalMigration sums migration duration across all launched waves.
func (o Outcome) TotalMigration() simtime.Duration {
	var sum simtime.Duration
	for i := range o.Waves {
		if o.Waves[i].Scale != nil {
			sum += o.Waves[i].Scale.MigrationDuration()
		}
	}
	return sum
}

// TotalScalingPeriod sums the request-to-restabilization span across all
// launched waves.
func (o Outcome) TotalScalingPeriod() simtime.Duration {
	if len(o.Waves) == 0 {
		return o.ScalingPeriod()
	}
	var sum simtime.Duration
	for i := range o.Waves {
		if o.Waves[i].Scale != nil {
			sum += o.Waves[i].ScalingPeriod()
		}
	}
	return sum
}

// PeakIn / AvgIn report latency stats over [from, to) in ms.
func (o Outcome) PeakIn(from, to simtime.Time) float64 { return o.Latency.PeakIn(from, to) }

// AvgIn reports the average latency over [from, to) in ms.
func (o Outcome) AvgIn(from, to simtime.Time) float64 { return o.Latency.AvgIn(from, to) }

// Stat is a mean ± std pair over repeated runs.
type Stat struct {
	Mean, Std float64
}

func (s Stat) String() string { return fmt.Sprintf("%8.0f(±%6.0f)", s.Mean, s.Std) }

// NewStat aggregates samples.
func NewStat(samples []float64) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, v := range samples {
		sq += float64((v - mean) * (v - mean))
	}
	return Stat{Mean: mean, Std: math.Sqrt(sq / float64(len(samples)))}
}
