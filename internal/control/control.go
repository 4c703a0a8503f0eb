// Package control is the reactive control plane: instead of a pre-scripted
// wave program deciding when and how far the job rescales, a Policy observes
// a cadence-sampled Snapshot of the running system (source backlog, emission
// rate, marker latency, in-flight operation progress) and emits scaling
// Actions. The Controller runs the policy on the simulated clock, debounces
// its decisions, launches mechanisms through the lifecycle-observable
// scaling.Mechanism interface, and — when a decision lands mid-operation —
// supersedes the in-flight operation per the paper's concurrent-execution
// rule 1: the old operation is cancelled, and the replacement plan comes
// from scaling.PlanFromPlacement so already-migrated key groups never move
// twice.
//
// Everything the controller reads derives from the seeded simulation, so
// closed-loop runs are exactly as deterministic as scripted ones.
package control

import (
	"fmt"

	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// Config parameterizes a Controller.
type Config struct {
	// Operator is the operator being scaled.
	Operator string
	// Policy decides. The controller owns it for the run.
	Policy Policy
	// Cadence is the snapshot sampling period (default 500 ms). Rates and
	// latencies are sampled over the last four cadences.
	Cadence simtime.Duration
	// HoldOff suppresses actions before this instant (warmup guard);
	// sampling still runs so trend policies enter it warm.
	HoldOff simtime.Time
	// Stop ends sampling (the run horizon): no decision may launch into the
	// post-measurement drain. Required — the cadence loop re-arms itself, so
	// without a stop instant a post-horizon scheduler drain never empties.
	Stop simtime.Time
	// Debounce is the minimum spacing between accepted decisions
	// (default 2 s) — the oscillation guard.
	Debounce simtime.Duration
	// DegradedDebounce, when larger than Debounce, replaces it while the
	// cluster is degraded: for 2×DegradedDebounce after each Health disruption,
	// voluntary decisions space out to this wider guard so the controller
	// stops chasing a cluster that is still being faulted. Recovery
	// supersessions are unaffected — they already bypass the debounce.
	// Zero disables degraded mode (the historical behavior).
	DegradedDebounce simtime.Duration
	// Min and Max bound the reachable parallelism.
	Min, Max int
	// Setup is the plan's physical deployment delay.
	Setup simtime.Duration
	// InitialParallelism seeds the logical parallelism before the first
	// operation.
	InitialParallelism int
	// Health, when set, reports a monotonic cluster-disruption count plus a
	// note describing the latest disruption (the fault injector's view). The
	// controller polls it every tick; a count increase while an operation is
	// in flight triggers an involuntary recovery supersession — cancel,
	// re-plan from surviving placement — bypassing the debounce guard.
	Health func() (int, string)
	// Interventions force counterfactual forks: each intercepts the voluntary
	// decision whose Seq matches its K (recovery decisions are exempt) and
	// replaces the policy's choice — see Intervention. Empty means the policy
	// runs unforced, which is the only mode the golden digests pin.
	Interventions []Intervention
}

func (c *Config) fillDefaults() {
	if c.Cadence == 0 {
		c.Cadence = 500 * simtime.Millisecond
	}
	if c.Debounce == 0 {
		c.Debounce = 2 * simtime.Second
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 1 << 30
	}
}

// Decision is one audit-trail entry: what the policy saw, what it asked
// for, and what became of the request.
type Decision struct {
	// Seq numbers decisions within the run.
	Seq int
	// At is the decision instant; Policy and Reason describe the trigger.
	At     simtime.Time
	Policy string
	Reason string
	// From is the parallelism the system was heading to when the decision
	// fired; To is the decision's (clamped) target.
	From, To int
	// Superseded reports the decision preempted an in-flight operation: the
	// old operation was cancelled and this launch waited for it to settle.
	Superseded bool
	// Recovery reports the decision was involuntary: a cluster disruption
	// (from Config.Health) invalidated the in-flight operation, and this
	// decision re-plans the same target from the surviving placement.
	Recovery bool
	// Launched/LaunchedAt report the resulting operation's start. A decision
	// that was itself replaced while waiting never launches.
	Launched   bool
	LaunchedAt simtime.Time
	// Done/DoneAt report the operation's completion.
	Done   bool
	DoneAt simtime.Time
	// Snapshot is what the policy saw when it fired — the evidence behind the
	// decision, recorded so counterfactual analysis can ask "given this view,
	// was the action right?". Not folded into outcome digests.
	Snapshot Snapshot
	// Forced reports a counterfactual intervention replaced the policy's
	// choice at this fork (see Config.Interventions). Never set on unforced
	// runs, so golden digests are unaffected.
	Forced bool
}

// Hooks are the harness integration points.
type Hooks struct {
	// WillLaunch fires right before the mechanism Begins an operation (the
	// bench harness swaps per-operation metrics collectors here). The
	// returned callback — if any — fires when the operation completes.
	WillLaunch func(d Decision, plan scaling.Plan) func()
}

// Controller runs one policy against one runtime.
type Controller struct {
	cfg     Config
	rt      *engine.Runtime
	newMech func() scaling.Mechanism
	hooks   Hooks

	decisions  []Decision
	cur        *scaling.Tracked
	curIdx     int // decision index of the in-flight operation
	pending    int // decision index waiting on supersession, -1 when none
	curP       int // logical parallelism (target of the last completed op)
	lastAct    simtime.Time
	acted      bool
	lastHealth int // last disruption count seen from cfg.Health
	// lastDisrupt/disrupted track when the latest disruption landed, for the
	// degraded-mode debounce widening.
	lastDisrupt simtime.Time
	disrupted   bool
	// delayed suppresses new policy decisions while a delay-intervened
	// decision waits for its shifted action: the fork under study is the
	// postponed action, not a race against fresher decisions.
	delayed bool
}

// New builds a controller. Call Start before running the scheduler.
func New(rt *engine.Runtime, cfg Config, newMech func() scaling.Mechanism, hooks Hooks) *Controller {
	if cfg.Stop <= 0 {
		panic("control: Config.Stop must be set — the sampling loop re-arms every cadence tick and would keep the scheduler drain alive forever")
	}
	cfg.fillDefaults()
	if cfg.InitialParallelism <= 0 {
		cfg.InitialParallelism = len(rt.Instances(cfg.Operator))
	}
	return &Controller{
		cfg:     cfg,
		rt:      rt,
		newMech: newMech,
		hooks:   hooks,
		curP:    cfg.InitialParallelism,
		pending: -1,
	}
}

// Start arms the sampling loop.
func (c *Controller) Start() { c.schedule() }

// Decisions returns the audit trail (shared slice; callers must not mutate).
func (c *Controller) Decisions() []Decision { return c.decisions }

// Parallelism reports the logical parallelism: the target of the last
// completed operation.
func (c *Controller) Parallelism() int { return c.curP }

// target is where the system is heading: pending supersession first, then
// the in-flight operation, then the settled parallelism.
func (c *Controller) target() int {
	if c.pending >= 0 {
		return c.decisions[c.pending].To
	}
	if c.cur != nil {
		return c.decisions[c.curIdx].To
	}
	return c.curP
}

func (c *Controller) schedule() {
	c.rt.Sched.After(c.cfg.Cadence, c.tick)
}

func (c *Controller) tick() {
	now := c.rt.Sched.Now()
	if now > c.cfg.Stop {
		return
	}
	c.checkHealth(now)
	s := c.Sample()
	acts := c.cfg.Policy.Observe(s)
	if now >= c.cfg.HoldOff {
		c.consider(now, s, acts)
	}
	c.schedule()
}

// checkHealth turns cluster disruptions into involuntary recovery
// supersessions. Unlike policy decisions, recovery ignores HoldOff and
// Debounce — a migration heading for a dead destination must not wait out an
// oscillation guard — and re-plans the *same* target: the point is to route
// the remaining moves around the disruption, not to change where the system
// is going.
func (c *Controller) checkHealth(now simtime.Time) {
	if c.cfg.Health == nil {
		return
	}
	h, note := c.cfg.Health()
	if h <= c.lastHealth {
		return
	}
	c.lastHealth = h
	c.lastDisrupt, c.disrupted = now, true
	if c.cur == nil || c.pending >= 0 {
		// Nothing in flight to rescue, or a replacement is already queued —
		// its launch re-plans from the actual placement anyway.
		return
	}
	d := Decision{
		Seq:        len(c.decisions),
		At:         now,
		Policy:     c.cfg.Policy.Name(),
		Reason:     "recovery: " + note,
		From:       c.target(),
		To:         c.target(),
		Superseded: true,
		Recovery:   true,
		Snapshot:   c.Sample(),
	}
	c.decisions = append(c.decisions, d)
	c.pending = d.Seq
	c.cur.Cancel()
}

// Sample assembles the policy's snapshot from the runtime's trackers.
func (c *Controller) Sample() Snapshot {
	now := c.rt.Sched.Now()
	from := now.Add(-4 * c.cfg.Cadence)
	s := Snapshot{
		At:                now,
		Parallelism:       c.curP,
		TargetParallelism: c.target(),
		SourceBacklog:     c.rt.SourceBacklog(),
		ThroughputRPS:     c.rt.Throughput.RateIn(from, now),
		AvgLatencyMs:      c.rt.Latency.AvgIn(from, now),
	}
	if c.cur != nil {
		s.Busy = true
		s.Op = c.cur.Progress()
	}
	return s
}

// consider applies the first actionable entry: clamp, drop no-ops, debounce,
// then — unless a counterfactual intervention forces the fork — either launch
// or supersede.
func (c *Controller) consider(now simtime.Time, s Snapshot, acts []Action) {
	if c.delayed {
		// A delay-intervened decision is waiting for its shifted action.
		return
	}
	for _, a := range acts {
		to := a.Target
		if to < c.cfg.Min {
			to = c.cfg.Min
		}
		if to > c.cfg.Max {
			to = c.cfg.Max
		}
		if to == c.target() {
			continue
		}
		deb := c.cfg.Debounce
		if c.cfg.DegradedDebounce > deb && c.disrupted && now.Sub(c.lastDisrupt) < 2*c.cfg.DegradedDebounce {
			// Degraded mode: the cluster was disrupted recently enough that
			// another fault is plausible; hold voluntary rescaling longer.
			deb = c.cfg.DegradedDebounce
		}
		if c.acted && now.Sub(c.lastAct) < deb {
			return
		}
		c.lastAct, c.acted = now, true
		d := Decision{
			Seq:      len(c.decisions),
			At:       now,
			Policy:   c.cfg.Policy.Name(),
			Reason:   a.Reason,
			From:     c.target(),
			To:       to,
			Snapshot: s,
		}
		if iv, ok := intervention(c.cfg.Interventions, d.Seq); ok {
			c.force(d, iv)
			return
		}
		c.decisions = append(c.decisions, d)
		c.act(d.Seq)
		return
	}
}

// force applies a counterfactual intervention at decision d's fork. The
// decision passed every unforced gate (clamp, no-op skip, debounce) and has
// consumed the debounce slot, so the forced run's decision *timing* matches
// the baseline — only the action at this fork differs.
func (c *Controller) force(d Decision, iv Intervention) {
	d.Forced = true
	if iv.NoOp {
		// Drop the fork: record what the policy wanted (audit trail keeps the
		// original To) but cancel and launch nothing.
		d.Reason = "forced noop; policy wanted: " + d.Reason
		c.decisions = append(c.decisions, d)
		return
	}
	if iv.Target > 0 {
		to := iv.Target
		if to < c.cfg.Min {
			to = c.cfg.Min
		}
		if to > c.cfg.Max {
			to = c.cfg.Max
		}
		d.Reason = fmt.Sprintf("forced target %d; policy wanted %d: %s", to, d.To, d.Reason)
		d.To = to
		if d.To == c.target() {
			// The forced target is where the system is already heading — a
			// forced no-op, recorded but not acted on.
			c.decisions = append(c.decisions, d)
			return
		}
	}
	if iv.Delay > 0 {
		d.Reason = fmt.Sprintf("forced +%v delay: %s", iv.Delay, d.Reason)
		c.decisions = append(c.decisions, d)
		di := d.Seq
		c.delayed = true
		c.rt.Sched.After(iv.Delay, func() {
			c.delayed = false
			c.act(di)
		})
		return
	}
	c.decisions = append(c.decisions, d)
	c.act(d.Seq)
}

// act performs decision di's action: supersede the in-flight operation or
// launch immediately.
func (c *Controller) act(di int) {
	if c.cur != nil {
		// Concurrent-execution rule: the newer request terminates the
		// older one. Cancel stops mechanisms that honor it from
		// launching further migration work; either way the replacement
		// waits for the old operation's done, then plans from the actual
		// (partially migrated) placement. pending must be set before
		// Cancel: a mechanism with nothing in flight (still deploying,
		// or between subscale batches) completes synchronously inside
		// Cancel, and its done callback is what launches the
		// replacement.
		c.decisions[di].Superseded = true
		c.pending = di
		c.cur.Cancel()
		return
	}
	c.launch(di)
}

// launch begins decision di's operation from the actual current placement.
// Decisions are always re-resolved by index: the audit slice's backing array
// moves as later decisions append.
func (c *Controller) launch(di int) {
	now := c.rt.Sched.Now()
	if now > c.cfg.Stop {
		// The supersession chain outran the measured run; launching into the
		// drain would measure an idle system.
		return
	}
	d := &c.decisions[di]
	// Routing left pointing at an instance that never received its state (a
	// transfer failed mid-supersession) would make the new plan skip the
	// repair: PlanFromPlacement only moves groups whose holder and owner
	// disagree. Reconciling routing to actual holders first is a no-op on
	// healthy runs.
	scaling.ReconcileRouting(c.rt, c.cfg.Operator)
	plan := scaling.PlanFromPlacement(c.rt, c.cfg.Operator, d.To, c.cfg.Setup)
	var onDone func()
	if c.hooks.WillLaunch != nil {
		onDone = c.hooks.WillLaunch(*d, plan)
	}
	d.Launched = true
	d.LaunchedAt = now
	c.curIdx = di
	target := d.To
	mech := c.newMech()
	var op *scaling.Tracked
	op = mech.Begin(c.rt, plan, func() {
		d := &c.decisions[di]
		d.Done = true
		d.DoneAt = c.rt.Sched.Now()
		if op == nil || !op.Progress().Cancelled {
			// A cancelled operation settled short of its target (unlaunched
			// work dropped); claiming the target would misreport the
			// operator's parallelism to every later snapshot. The
			// superseding launch re-plans from actual placement and updates
			// curP when it completes.
			c.curP = target
		}
		c.cur = nil
		if onDone != nil {
			onDone()
		}
		if c.pending >= 0 {
			next := c.pending
			c.pending = -1
			c.launch(next)
		}
	})
	c.cur = op
}
