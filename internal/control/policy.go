package control

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// Snapshot is one cadence sample of the running job — everything a policy is
// allowed to see. All fields derive from the simulated clock and seeded
// trackers, so policies observing snapshots stay bit-for-bit deterministic.
type Snapshot struct {
	// At is the sample instant.
	At simtime.Time
	// Parallelism is the operator's logical parallelism: the target of the
	// last completed operation (the physical instance count only grows).
	Parallelism int
	// TargetParallelism is where the system is heading — equal to
	// Parallelism when idle, the in-flight (or pending superseding) target
	// otherwise.
	TargetParallelism int
	// SourceBacklog is the records queued at the sources: offered load the
	// data plane has not absorbed (backpressure from a saturated operator
	// stalls emission, so unmet demand piles up here).
	SourceBacklog int
	// ThroughputRPS is the mean source emission rate over the sample window.
	ThroughputRPS float64
	// AvgLatencyMs is the mean marker latency over the sample window (0 when
	// no marker landed in it).
	AvgLatencyMs float64
	// Busy reports an operation in flight; Op is its lifecycle progress.
	Busy bool
	Op   scaling.Progress
}

// Action asks the controller to rescale the operator.
type Action struct {
	// Target is the desired parallelism (the controller clamps to its
	// configured bounds).
	Target int
	// Reason is a short human-readable justification recorded in the
	// decision audit trail.
	Reason string
}

// Policy turns snapshots into scaling actions. Policies may keep state
// across Observe calls (trend windows, hysteresis counters); the harness
// constructs a fresh policy per run, so state never leaks between seeds.
// The controller applies the first actionable entry of the returned slice.
type Policy interface {
	// Name identifies the policy in reports and audit trails.
	Name() string
	// Observe inspects one snapshot and returns zero or more actions.
	Observe(s Snapshot) []Action
}

// Threshold scales on throughput deficit: the backlog derivative says how
// many records per second the current configuration fails to absorb, and
// per-instance utilization against the rated capacity drives scale-in. This
// is the classic reactive autoscaler — fast on sustained deficit, blind to
// trends.
type Threshold struct {
	// RatedRPS is the per-instance processing capacity the policy plans
	// against (records/s).
	RatedRPS float64

	lastBacklog int
	lastAt      simtime.Time
	primed      bool
}

// Threshold's trigger levels.
const (
	// deficitRPS triggers scale-out when the backlog grows faster than this
	// (records/s).
	deficitRPS = 100
	// backlogHigh triggers scale-out outright when the backlog exceeds it,
	// regardless of its derivative (records).
	backlogHigh = 1000
	// lowUtil triggers scale-in when utilization falls below it with an
	// empty backlog.
	lowUtil = 0.5
	// thresholdStep is how many instances each action adds or removes.
	thresholdStep = 2
)

// Name implements Policy.
func (p *Threshold) Name() string { return "threshold" }

// Observe implements Policy.
func (p *Threshold) Observe(s Snapshot) []Action {
	growth := 0.0
	if p.primed && s.At > p.lastAt {
		growth = float64(s.SourceBacklog-p.lastBacklog) / s.At.Sub(p.lastAt).Seconds()
	}
	p.lastBacklog, p.lastAt, p.primed = s.SourceBacklog, s.At, true

	cur := s.TargetParallelism
	switch {
	case growth > deficitRPS || s.SourceBacklog > backlogHigh:
		return []Action{{
			Target: cur + thresholdStep,
			Reason: fmt.Sprintf("deficit %.0f rec/s, backlog %d", growth, s.SourceBacklog),
		}}
	case s.SourceBacklog == 0 && s.ThroughputRPS > 0 &&
		s.ThroughputRPS < lowUtil*p.RatedRPS*float64(cur):
		return []Action{{
			Target: cur - thresholdStep,
			Reason: fmt.Sprintf("utilization %.2f below %.2f", s.ThroughputRPS/(p.RatedRPS*float64(cur)), lowUtil),
		}}
	}
	return nil
}

// Backlog chases the source backlog with hysteresis: demand is estimated as
// the observed emission rate plus enough extra capacity to drain the queued
// backlog within drainWindow, and the parallelism that serves that demand at
// targetUtil becomes the goal. Hysteresis (Patience consecutive samples
// before shrinking, an asymmetric fast path for growth) keeps a noisy
// backlog from flapping the cluster.
type Backlog struct {
	// RatedRPS is the per-instance processing capacity (records/s).
	RatedRPS float64
	// Patience is how many consecutive samples must agree before the policy
	// scales in (default 4). Scale-out fires on the first sample — queueing
	// hurts immediately, idling does not.
	Patience int

	shrinkRun  int
	shrinkGoal int
}

// Backlog's and Predictive's sizing constants.
const (
	// targetUtil is the planned post-scale utilization.
	targetUtil = 0.75
	// predictWindow is how many samples feed Predictive's trend fit.
	predictWindow = 8
	// drainWindow is how fast the backlog should be drained: smaller
	// windows chase harder.
	drainWindow = 2 * simtime.Second
	// deadband suppresses actions when the backlog is below it and the
	// computed target differs by a single instance (records).
	deadband = 64
)

// Name implements Policy.
func (p *Backlog) Name() string { return "backlog" }

// Observe implements Policy.
func (p *Backlog) Observe(s Snapshot) []Action {
	p.fillDefaults()
	if p.RatedRPS <= 0 || s.ThroughputRPS <= 0 {
		return nil
	}
	demand := s.ThroughputRPS + float64(float64(s.SourceBacklog)/drainWindow.Seconds())
	need := int(math.Ceil(demand / (p.RatedRPS * targetUtil)))
	if need < 1 {
		need = 1
	}
	cur := s.TargetParallelism
	switch {
	case need > cur:
		p.shrinkRun = 0
		return []Action{{
			Target: need,
			Reason: fmt.Sprintf("demand %.0f rec/s (backlog %d) needs %d instances", demand, s.SourceBacklog, need),
		}}
	case need < cur:
		if s.SourceBacklog <= deadband && cur-need == 1 {
			// Within the deadband a one-instance shrink is noise.
			p.shrinkRun = 0
			return nil
		}
		// Hysteresis: count consecutive samples that agree the cluster is
		// oversized, and shrink only to the *largest* need seen during the
		// run — sample noise must not reset the countdown or overshoot the
		// shrink.
		p.shrinkRun++
		if p.shrinkRun == 1 || need > p.shrinkGoal {
			p.shrinkGoal = need
		}
		if p.shrinkRun < p.Patience {
			return nil
		}
		p.shrinkRun = 0
		return []Action{{
			Target: p.shrinkGoal,
			Reason: fmt.Sprintf("demand %.0f rec/s sustained %d samples below %d instances", demand, p.Patience, cur),
		}}
	default:
		p.shrinkRun = 0
	}
	return nil
}

func (p *Backlog) fillDefaults() {
	if p.Patience == 0 {
		p.Patience = 4
	}
}

// Predictive extrapolates the load shape: a least-squares line through the
// recent emission-rate samples is projected Horizon ahead, and the
// parallelism that serves the projected rate at targetUtil becomes the goal.
// Where Threshold reacts after queues form, Predictive scales into a ramp
// before saturation — and scales back down the far side of the peak.
type Predictive struct {
	// RatedRPS is the per-instance processing capacity (records/s).
	RatedRPS float64
	// Horizon is how far ahead the trend is projected (default 3 s) —
	// roughly deployment time plus migration time, so capacity lands when
	// the load does.
	Horizon simtime.Duration
	// Patience is how many consecutive samples must agree before scaling in
	// (default 3; scale-out acts on the first).
	Patience int

	hist       []ratePoint
	shrinkRun  int
	shrinkGoal int
}

type ratePoint struct {
	at  simtime.Time
	rps float64
}

// Name implements Policy.
func (p *Predictive) Name() string { return "predictive" }

// Observe implements Policy.
func (p *Predictive) Observe(s Snapshot) []Action {
	p.fillDefaults()
	if p.RatedRPS <= 0 {
		return nil
	}
	p.hist = append(p.hist, ratePoint{at: s.At, rps: s.ThroughputRPS})
	if len(p.hist) > predictWindow {
		p.hist = p.hist[len(p.hist)-predictWindow:]
	}
	if len(p.hist) < predictWindow {
		return nil
	}
	predicted := p.extrapolate(s.At.Add(p.Horizon))
	// Queued backlog is demand the projection cannot see; fold it in so a
	// spike mid-window still registers.
	predicted += float64(s.SourceBacklog) / p.Horizon.Seconds()
	need := int(math.Ceil(predicted / (p.RatedRPS * targetUtil)))
	if need < 1 {
		need = 1
	}
	cur := s.TargetParallelism
	switch {
	case need > cur:
		p.shrinkRun = 0
		return []Action{{
			Target: need,
			Reason: fmt.Sprintf("projected %.0f rec/s in %v needs %d instances", predicted, p.Horizon, need),
		}}
	case need < cur:
		// Same conservative hysteresis as Backlog: shrink to the largest
		// need seen during the patience run.
		p.shrinkRun++
		if p.shrinkRun == 1 || need > p.shrinkGoal {
			p.shrinkGoal = need
		}
		if p.shrinkRun < p.Patience {
			return nil
		}
		p.shrinkRun = 0
		return []Action{{
			Target: p.shrinkGoal,
			Reason: fmt.Sprintf("projected %.0f rec/s sustained %d samples below %d instances", predicted, p.Patience, cur),
		}}
	default:
		p.shrinkRun = 0
	}
	return nil
}

// extrapolate fits rate = a + b·t over the window by least squares and
// evaluates at t. A degenerate window (all samples at one instant) falls
// back to the latest rate.
func (p *Predictive) extrapolate(at simtime.Time) float64 {
	n := float64(len(p.hist))
	t0 := p.hist[0].at
	var st, sy, stt, sty float64
	for _, h := range p.hist {
		t := h.at.Sub(t0).Seconds()
		st += t
		sy += h.rps
		stt += float64(t * t)
		sty += float64(t * h.rps)
	}
	den := float64(n*stt) - float64(st*st)
	if den == 0 {
		return p.hist[len(p.hist)-1].rps
	}
	b := (float64(n*sty) - float64(st*sy)) / den
	a := (sy - float64(b*st)) / n
	v := a + float64(b*at.Sub(t0).Seconds())
	if v < 0 {
		return 0
	}
	return v
}

func (p *Predictive) fillDefaults() {
	if p.Horizon == 0 {
		p.Horizon = 3 * simtime.Second
	}
	if p.Patience == 0 {
		p.Patience = 3
	}
}

// PolicyParams carries the scenario-derived calibration a by-name policy
// needs (the registry cannot know per-workload capacities), plus the tunable
// knobs the policy-search sweeps explore. Zero values defer to each policy's
// fillDefaults, so existing by-name construction is unchanged.
type PolicyParams struct {
	// RatedRPS is the per-instance processing capacity (records/s). The
	// bench driver derives it from the scaling operator's CostPerRecord when
	// the scenario does not pin it.
	RatedRPS float64
	// Patience is the scale-in hysteresis: consecutive agreeing samples
	// required before shrinking (backlog and predictive policies; threshold
	// has no hysteresis counter).
	Patience int
	// Horizon is the predictive policy's projection distance.
	Horizon simtime.Duration
}

// policyFactories maps registry names to constructors. Policies are stateful,
// so the registry hands out factories, never shared instances.
var policyFactories = map[string]func(PolicyParams) Policy{
	"threshold": func(p PolicyParams) Policy { return &Threshold{RatedRPS: p.RatedRPS} },
	"backlog":   func(p PolicyParams) Policy { return &Backlog{RatedRPS: p.RatedRPS, Patience: p.Patience} },
	"predictive": func(p PolicyParams) Policy {
		return &Predictive{RatedRPS: p.RatedRPS, Patience: p.Patience, Horizon: p.Horizon}
	},
}

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PolicyByName constructs a fresh registered policy. Unknown names panic
// with the full list, mirroring the scenario registry's contract.
func PolicyByName(name string, params PolicyParams) Policy {
	f, ok := policyFactories[name]
	if !ok {
		panic(fmt.Sprintf("control: unknown policy %q (known: %s)", name, strings.Join(PolicyNames(), ", ")))
	}
	return f(params)
}
