package bench

import (
	"fmt"

	"drrs/internal/faults"
	"drrs/internal/workload"
)

// Overrides is what the shared CLI flags (-topology, -placement, -driver,
// -policy, -faults, -replay) ask for, as a value: Apply rewrites a Scenario,
// and RunWith reads nothing but the Scenario it is handed. Every layer that
// varies a run is such a rewrite, and the later, more specific one wins:
// Overrides go on where a scenario is constructed (Harness.Scenario), so a
// search candidate's policy, a chaos case's plan, a counterfactual's
// interventions and a figure's WithPlacement column all beat them.
type Overrides struct {
	// Topology names a substrate (Topologies), Placement a placement policy;
	// Placement fills in only where the scenario names no policy of its own.
	Topology, Placement string
	// Driver is "script" or "controller"; Policy is the controller's policy.
	Driver, Policy string
	// Faults replaces the scenario's fault plan; NoFaults (-faults off) with
	// a nil Faults removes it.
	Faults   *faults.Plan
	NoFaults bool
	Replay   *workload.Trace
}

// Apply returns sc rewritten by the overrides; zero fields keep the scenario's
// own choice. The one error is a replay onto a scenario whose traffic is a
// custom generator closure (twitch, nexmark), which has no stream to swap.
func (ov Overrides) Apply(sc Scenario) (Scenario, error) {
	if ov.Replay != nil {
		if sc.Traffic == nil {
			return sc, fmt.Errorf("bench: scenario %q drives a custom generator and cannot replay a trace (-replay works with custom-job scenarios; see drrs-bench -list)", sc.Name)
		}
		sc.Traffic = workload.Replay(ov.Replay)
	}
	if ov.Topology != "" {
		sc.Cluster = TopologyByName(ov.Topology)
	}
	if ov.Placement != "" && sc.Placement == "" {
		sc.Placement = ov.Placement
	}
	switch {
	case ov.Driver == "script":
		sc.Driver = nil // RunWith replays Program()
	case ov.Driver == "controller" || (sc.Driver != nil && ov.Policy != ""):
		d := ControllerDriver{Policy: "backlog"}
		if sc.Driver != nil {
			d = *sc.Driver // keep the scenario's calibration; never write through its pointer
		}
		if ov.Policy != "" {
			d.Policy = ov.Policy
		}
		sc.Driver = &d
	}
	if ov.NoFaults || ov.Faults != nil {
		sc.Faults = ov.Faults
	}
	return sc, nil
}
