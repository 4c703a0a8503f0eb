package bench

import (
	"fmt"

	"drrs/internal/control"
	"drrs/internal/engine"
	"drrs/internal/faults"
	"drrs/internal/metrics"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// Driver is the scenario's control plane: it decides when the job rescales
// and to what parallelism. ScriptDriver replays the pre-scripted wave
// program (the classic Scenario fields — the paper's experiments);
// ControllerDriver closes the loop, letting a control.Policy observe the
// running job and trigger scaling from the workload itself.
type Driver interface {
	// Name labels the driver in reports ("script", "controller").
	Name() string
	// Describe renders the driving program for listings — "→12→8" for a
	// scripted program, "reactive/backlog" for a policy.
	Describe(sc *Scenario) string
	// Drive installs the driver on a freshly started run: schedule the first
	// control event here. The run's Outcome fields the driver owns (Waves,
	// Decisions) are filled in during the simulation.
	Drive(r *Run)
	// Finish seals driver-owned outcome state after the simulation drains.
	Finish(r *Run)
}

// Run is the live context a Driver operates on: the built runtime, the
// scenario being driven, and the outcome under assembly.
type Run struct {
	Scenario *Scenario
	RT       *engine.Runtime
	Sched    *simtime.Scheduler
	Outcome  *Outcome
	// Horizon is Warmup+Measure: control events past it would drive an
	// idle, draining pipeline.
	Horizon simtime.Time

	// Injector is the run's fault injector (nil on healthy runs); the
	// controller driver wires its Health feed into the control plane.
	Injector *faults.Injector

	newMech func() scaling.Mechanism
	first   scaling.Mechanism
	ctl     *control.Controller
}

// NextMech hands out the run's pre-built first mechanism once, then fresh
// ones — mechanisms carry per-operation state, so every scaling operation
// needs its own instance.
func (r *Run) NextMech() scaling.Mechanism {
	if r.first != nil {
		m := r.first
		r.first = nil
		return m
	}
	return r.newMech()
}

// beginWave is the per-operation bookkeeping both drivers share: wave 0
// collects into the run's ambient ScalingMetrics; later waves swap in a
// fresh collector, splitting suspensions that span the boundary so the tail
// before it is credited to the wave that caused it.
func (r *Run) beginWave(wo *WaveOutcome) {
	now := r.Sched.Now()
	wo.ScaleAt = now
	if wo.Scale != nil {
		return
	}
	stillOpen := r.RT.Scale.CloseAllSuspensions(now)
	wo.Scale = metrics.NewScalingMetrics()
	r.RT.Scale = wo.Scale
	for _, name := range stillOpen {
		wo.Scale.SuspendBegin(name, now)
	}
}

// ScriptDriver replays an ordered wave program: wave 0 fires at Warmup+Gap,
// each later wave Gap after the previous wave completes. This is the
// pre-redesign Scenario behaviour, verbatim — registered scenarios produce
// byte-identical outcomes under it.
type ScriptDriver struct {
	Waves []Wave
}

// Name implements Driver.
func (d *ScriptDriver) Name() string { return "script" }

// Describe implements Driver.
func (d *ScriptDriver) Describe(sc *Scenario) string {
	s := ""
	for _, w := range d.Waves {
		s += fmt.Sprintf("→%d", w.NewParallelism)
	}
	return s
}

// Finish implements Driver.
func (d *ScriptDriver) Finish(r *Run) {}

// Drive implements Driver.
func (d *ScriptDriver) Drive(r *Run) {
	sc, s, rt, out := r.Scenario, r.Sched, r.RT, r.Outcome
	waves := d.Waves
	out.Waves = make([]WaveOutcome, len(waves))
	for i := range out.Waves {
		// Pre-fill the program so never-launched waves still report their
		// target.
		out.Waves[i].Wave = waves[i]
	}
	var launch func(i int, mech scaling.Mechanism)
	launch = func(i int, mech scaling.Mechanism) {
		if mech == nil {
			return
		}
		if s.Now() > r.Horizon {
			// The gap chain outran the measured run: the pipeline is
			// draining with no generators or markers, so numbers measured
			// now would describe an idle system. The wave stays un-launched
			// (Done=false, Scale=nil).
			return
		}
		w := waves[i]
		wo := &out.Waves[i]
		wo.ScaleAt = s.Now()
		var plan scaling.Plan
		if i == 0 {
			// The first wave scales from the nominal contiguous layout and
			// collects into the run's ambient metrics.
			plan = scaling.UniformPlan(rt.Graph, sc.ScaleOp, w.NewParallelism, sc.Setup)
			wo.Scale = rt.Scale
		} else {
			// Later waves plan from the actual placement the previous wave
			// left behind, into a fresh per-wave collector.
			plan = scaling.PlanFromPlacement(rt, sc.ScaleOp, w.NewParallelism, sc.Setup)
			r.beginWave(wo)
		}
		wo.FromParallelism = plan.OldParallelism
		if i > 0 {
			wo.FromParallelism = waves[i-1].NewParallelism
		}
		mech.Begin(rt, plan, func() {
			wo.Done = true
			wo.DoneAt = s.Now()
			if i+1 < len(waves) {
				s.After(waves[i+1].Gap, func() { launch(i+1, r.NextMech()) })
			}
		})
	}
	s.After(sc.Warmup+waves[0].Gap, func() { launch(0, r.NextMech()) })
}

// ControllerDriver closes the loop: a control.Controller samples the running
// job on a cadence and a registered policy decides when and how far to
// scale. The field set is pure configuration — the driver value is shared
// across parallel runs, so all mutable state (policy, controller, audit
// trail) is created per run inside Drive.
type ControllerDriver struct {
	// Policy names a registered control policy (control.PolicyNames).
	Policy string
	// Cadence / Debounce / Window override the controller defaults
	// (500 ms / 2 s / 4×cadence).
	Cadence  simtime.Duration
	Debounce simtime.Duration
	Window   simtime.Duration
	// DegradedDebounce / DegradedWindow arm the controller's degraded mode:
	// voluntary decisions space out to the wider debounce for DegradedWindow
	// after each cluster disruption. Zero keeps degraded mode off.
	DegradedDebounce simtime.Duration
	DegradedWindow   simtime.Duration
	// Min and Max bound the reachable parallelism. Zero defaults to
	// [max(2, P/2), 2×P] around the operator's initial parallelism.
	Min, Max int
	// RatedRPS is the per-instance capacity policies plan against; zero
	// derives 1/CostPerRecord from the scaling operator's spec.
	RatedRPS float64
	// Patience / Horizon tune the policy's scale-in hysteresis and projection
	// distance (zero keeps the policy defaults) — the knobs the policy search
	// sweeps alongside Cadence and Debounce.
	Patience int
	Horizon  simtime.Duration
	// Interventions force counterfactual forks at numbered decisions; see
	// control.Intervention. Empty reproduces the unforced run exactly.
	Interventions []control.Intervention
}

// Name implements Driver.
func (d *ControllerDriver) Name() string { return "controller" }

// Describe implements Driver.
func (d *ControllerDriver) Describe(sc *Scenario) string {
	return "reactive/" + d.Policy
}

// Drive implements Driver.
func (d *ControllerDriver) Drive(r *Run) {
	sc, rt, out := r.Scenario, r.RT, r.Outcome
	spec := rt.Graph.Operator(sc.ScaleOp)
	initP := spec.Parallelism
	rated := d.RatedRPS
	if rated == 0 && spec.CostPerRecord > 0 {
		rated = 1 / spec.CostPerRecord.Seconds()
	}
	min, max := d.Min, d.Max
	if min == 0 {
		if min = initP / 2; min < 2 {
			min = 2
		}
	}
	if max == 0 {
		max = initP * 2
	}
	pol := control.PolicyByName(d.Policy, control.PolicyParams{
		RatedRPS: rated,
		Patience: d.Patience,
		Horizon:  d.Horizon,
	})
	cfg := control.Config{
		Operator:           sc.ScaleOp,
		Policy:             pol,
		Cadence:            d.Cadence,
		Window:             d.Window,
		Debounce:           d.Debounce,
		DegradedDebounce:   d.DegradedDebounce,
		DegradedWindow:     d.DegradedWindow,
		HoldOff:            simtime.Time(sc.Warmup),
		Stop:               r.Horizon,
		Min:                min,
		Max:                max,
		Setup:              sc.Setup,
		InitialParallelism: initP,
		Interventions:      d.Interventions,
	}
	if r.Injector != nil {
		// Faulted runs close a second loop: the injector's disruption feed
		// lets the controller supersede an operation whose destination died.
		cfg.Health = r.Injector.Health
	}
	r.ctl = control.New(rt, cfg, r.NextMech, control.Hooks{
		WillLaunch: func(dec control.Decision, plan scaling.Plan) func() {
			i := len(out.Waves)
			out.Waves = append(out.Waves, WaveOutcome{
				Wave:            Wave{NewParallelism: dec.To},
				FromParallelism: dec.From,
			})
			wo := &out.Waves[i]
			if i == 0 {
				wo.ScaleAt = r.Sched.Now()
				wo.Scale = rt.Scale
			} else {
				r.beginWave(wo)
			}
			return func() {
				// Re-resolve by index: later appends may have moved the
				// backing array.
				wo := &out.Waves[i]
				wo.Done = true
				wo.DoneAt = r.Sched.Now()
			}
		},
	})
	r.ctl.Start()
}

// Finish implements Driver.
func (d *ControllerDriver) Finish(r *Run) {
	if r.ctl != nil {
		r.Outcome.Decisions = r.ctl.Decisions()
	}
}

// WithInterventions returns a copy of the scenario whose controller driver
// forces the given counterfactual interventions. A scripted scenario is an
// error — a wave program has no policy decisions to fork; apply
// Overrides{Driver: "controller"} first.
func (sc Scenario) WithInterventions(ivs []control.Intervention) (Scenario, error) {
	own, ok := sc.driver().(*ControllerDriver)
	if !ok {
		return sc, fmt.Errorf("bench: scenario %q is driven by a scripted wave program — counterfactual interventions fork policy decisions, so the scenario must be controller-driven", sc.Name)
	}
	clone := *own
	clone.Interventions = ivs
	sc.Driver = &clone
	return sc, nil
}

// driver resolves the run's Driver: the scenario's own, else the classic
// scripted wave program.
func (sc *Scenario) driver() Driver {
	if sc.Driver != nil {
		return sc.Driver
	}
	return &ScriptDriver{Waves: sc.Program()}
}
