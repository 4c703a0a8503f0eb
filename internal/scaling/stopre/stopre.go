// Package stopre implements the Stop-Checkpoint-Restart mechanism mainstream
// SPEs use for rescaling (the paper's Section I/II motivation): pause the
// sources, take a global aligned checkpoint, halt the job, redeploy with the
// new configuration, restore state, and resume.
//
// It is not part of the paper's main comparison figures (the paper dismisses
// it for latency-sensitive work), but it is the reference point that makes
// the on-the-fly numbers meaningful, so the repository includes it.
package stopre

import (
	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// restoreBytesPerSec is the state restore rate (400 MB/s).
const restoreBytesPerSec = 400 << 20

// Mechanism is the Stop-Checkpoint-Restart baseline.
type Mechanism struct{}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string { return "stop-restart" }

// Begin implements scaling.Mechanism. Stop-Checkpoint-Restart cannot be
// cancelled once the checkpoint fires: the job is halted and must restore
// before resuming, so Cancel is recorded but the restart runs to completion.
// The operation reads as deploying until the restore ends; every planned
// group lands in that one instant, and the operation, which owes no other
// work, finishes as it is deployed.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) *scaling.Tracked {
	op := scaling.NewTracked(rt, plan, done)
	const signal = "stop-restart"
	rt.Scale.SignalInjected(signal, rt.Sched.Now())
	for _, mv := range plan.Moves {
		rt.Scale.UnitAssigned(mv.KeyGroup, signal)
	}

	// Phase 1: global checkpoint with sources pausing at the barrier.
	id := rt.TriggerCheckpoint(func(int64) {
		m.restart(rt, plan, signal, op)
	})
	if id < 0 {
		panic("stopre: a checkpoint is already running")
	}
	rt.EachInstance(func(in *engine.Instance) {
		if in.Spec.Source != nil {
			in.PauseAfterCkpt = id
		}
	})
	return op
}

// restart runs after the checkpoint completes: the topology is quiet (all
// pre-barrier records processed, sources paused), so the job halts, state is
// redistributed, and everything resumes under the new configuration.
func (m *Mechanism) restart(rt *engine.Runtime, plan scaling.Plan, signal string, op *scaling.Tracked) {
	rt.EachInstance(func(in *engine.Instance) { in.Halted = true })
	totalState := rt.TotalStateBytes(plan.Operator)
	restore := plan.SetupDelay +
		simtime.Duration(float64(totalState)/restoreBytesPerSec*float64(simtime.Second))
	rt.Sched.After(restore, func() {
		scaling.AddInstances(rt, plan)
		rt.Scale.FirstMigration(signal, rt.Sched.Now())
		// Redistribute state directly: restore time was already charged.
		for _, mv := range plan.Moves {
			from := rt.Instance(plan.Operator, mv.From)
			to := rt.Instance(plan.Operator, mv.To)
			to.Store().InstallGroup(mv.KeyGroup, from.Store().ExtractGroup(mv.KeyGroup))
			op.Landed(mv.KeyGroup)
		}
		scaling.RouteToDestinations(rt, plan)
		rt.EachInstance(func(in *engine.Instance) {
			if in.Dead() {
				// Crashed mid-restart: only the fault injector's recovery path
				// may revive it, after re-placement and state restore.
				return
			}
			in.Halted = false
			if in.Spec.Source != nil {
				in.PauseData = false
			}
			in.Wake()
		})
		op.Deployed()
	})
}
