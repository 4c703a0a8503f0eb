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

// run is the live context the scenario's control plane operates on: the
// built runtime, the scenario being driven, and the outcome under assembly.
// The control plane is the scripted wave program (driveScript) unless the
// scenario names a ControllerDriver.
type run struct {
	sc    *Scenario
	rt    *engine.Runtime
	sched *simtime.Scheduler
	out   *Outcome
	// horizon is Warmup+Measure: control events past it would drive an
	// idle, draining pipeline.
	horizon simtime.Time

	// inj is the run's fault injector (nil on healthy runs); the controller
	// driver wires its Health feed into the control plane.
	inj *faults.Injector

	newMech func() scaling.Mechanism
	first   scaling.Mechanism
	ctl     *control.Controller
}

// nextMech hands out the run's pre-built first mechanism once, then fresh
// ones — mechanisms carry per-operation state, so every scaling operation
// needs its own instance.
func (r *run) nextMech() scaling.Mechanism {
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
func (r *run) beginWave(wo *WaveOutcome) {
	now := r.sched.Now()
	wo.ScaleAt = now
	if wo.Scale != nil {
		return
	}
	stillOpen := r.rt.Scale.CloseAllSuspensions(now)
	wo.Scale = metrics.NewScalingMetrics()
	r.rt.Scale = wo.Scale
	for _, name := range stillOpen {
		wo.Scale.SuspendBegin(name, now)
	}
}

// driveScript replays the scenario's wave program (Program): wave 0 fires
// at Warmup+Gap, each later wave Gap after the previous wave completes.
func driveScript(r *run) {
	sc, s, rt, out := r.sc, r.sched, r.rt, r.out
	waves := sc.Program()
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
		if s.Now() > r.horizon {
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
				s.After(waves[i+1].Gap, func() { launch(i+1, r.nextMech()) })
			}
		})
	}
	s.After(sc.Warmup+waves[0].Gap, func() { launch(0, r.nextMech()) })
}

// ControllerDriver closes the loop: a control.Controller samples the running
// job on a cadence and a registered policy decides when and how far to
// scale. The field set is pure configuration — the driver value is shared
// across parallel runs, so all mutable state (policy, controller, audit
// trail) is created per run inside Drive.
type ControllerDriver struct {
	// Policy names a registered control policy (control.PolicyNames).
	Policy string
	// Cadence / Debounce override the controller defaults (500 ms / 2 s).
	Cadence  simtime.Duration
	Debounce simtime.Duration
	// DegradedDebounce arms the controller's degraded mode: voluntary
	// decisions space out to the wider debounce for twice its length after
	// each cluster disruption. Zero keeps degraded mode off.
	DegradedDebounce simtime.Duration
	// Min and Max bound the reachable parallelism. Zero defaults to
	// [max(2, P/2), 2×P] around the operator's initial parallelism.
	Min, Max int
	// Patience / Horizon tune the policy's scale-in hysteresis and projection
	// distance (zero keeps the policy defaults) — the knobs the policy search
	// sweeps alongside Cadence and Debounce.
	Patience int
	Horizon  simtime.Duration
	// Interventions force counterfactual forks at numbered decisions; see
	// control.Intervention. Empty reproduces the unforced run exactly.
	Interventions []control.Intervention
}

// drive installs the controller on a freshly started run. Policies plan
// against a per-instance capacity of 1/CostPerRecord of the scaling
// operator.
func (d *ControllerDriver) drive(r *run) {
	sc, rt, out := r.sc, r.rt, r.out
	spec := rt.Graph.Operator(sc.ScaleOp)
	initP := spec.Parallelism
	rated := 0.0
	if spec.CostPerRecord > 0 {
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
		Debounce:           d.Debounce,
		DegradedDebounce:   d.DegradedDebounce,
		HoldOff:            simtime.Time(sc.Warmup),
		Stop:               r.horizon,
		Min:                min,
		Max:                max,
		Setup:              sc.Setup,
		InitialParallelism: initP,
		Interventions:      d.Interventions,
	}
	if r.inj != nil {
		// Faulted runs close a second loop: the injector's disruption feed
		// lets the controller supersede an operation whose destination died.
		cfg.Health = r.inj.Health
	}
	r.ctl = control.New(rt, cfg, r.nextMech, control.Hooks{
		WillLaunch: func(dec control.Decision, plan scaling.Plan) func() {
			i := len(out.Waves)
			out.Waves = append(out.Waves, WaveOutcome{
				Wave:            Wave{NewParallelism: dec.To},
				FromParallelism: dec.From,
			})
			wo := &out.Waves[i]
			if i == 0 {
				wo.ScaleAt = r.sched.Now()
				wo.Scale = rt.Scale
			} else {
				r.beginWave(wo)
			}
			return func() {
				// Re-resolve by index: later appends may have moved the
				// backing array.
				wo := &out.Waves[i]
				wo.Done = true
				wo.DoneAt = r.sched.Now()
			}
		},
	})
	r.ctl.Start()
}

// WithInterventions returns a copy of the scenario whose controller driver
// forces the given counterfactual interventions. A scripted scenario is an
// error — a wave program has no policy decisions to fork; apply
// Overrides{Driver: "controller"} first.
func (sc Scenario) WithInterventions(ivs []control.Intervention) (Scenario, error) {
	if sc.Driver == nil {
		return sc, fmt.Errorf("bench: scenario %q is driven by a scripted wave program — counterfactual interventions fork policy decisions, so the scenario must be controller-driven", sc.Name)
	}
	clone := *sc.Driver
	clone.Interventions = ivs
	sc.Driver = &clone
	return sc, nil
}
