// Package unbound implements the paper's "extreme" scaling solution
// (Section II-B, Fig 2): correctness is sacrificed entirely to isolate the
// mechanism-level overheads. Routing tables flip instantly without signal
// propagation, record keys behave as "universal keys" — every instance can
// process any record against a fresh local state — and migration happens in
// the background without ever suspending processing.
//
// Unbound eliminates Lp and Ls and hides Ld, so the residual gap between it
// and a non-scaling run bounds the inherent overhead Lo. Its output is WRONG
// by construction (per-key aggregates are split across instances and merged
// by overwrite); it exists purely as the paper's diagnostic upper bound.
package unbound

import (
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
)

// Mechanism is the Unbound diagnostic baseline.
type Mechanism struct{}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string { return "unbound" }

// Begin implements scaling.Mechanism. The operation owes one unit per move,
// paid when the group lands or its failed transfer reverts. Cancel is
// recorded but not honored: Unbound has no protocol to stand down.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) *scaling.Tracked {
	op := scaling.NewTracked(rt, plan, done)
	op.Owe(len(plan.Moves))
	const signal = "unbound"
	for _, mv := range plan.Moves {
		rt.Scale.UnitAssigned(mv.KeyGroup, signal)
	}
	mig := scaling.NewMigrator(rt, plan, op, func(_ int, p scaling.MovePhase) {
		if p == scaling.Landed || p == scaling.Reverted {
			op.Pay(1)
		}
	})
	scaling.Deploy(rt, plan, func() {
		rt.Scale.SignalInjected(signal, rt.Sched.Now())
		// Universal keys: any instance processes any record, creating local
		// state shells on demand, so nothing ever suspends — including old
		// instances handling stragglers for groups already extracted. The
		// hook stays installed; Unbound has no cleanup protocol (it has no
		// protocol at all — that is the point).
		for _, in := range rt.Instances(plan.Operator) {
			in.SetHook(universalHook{})
		}
		for _, mv := range plan.Moves {
			rt.Instance(plan.Operator, mv.To).Store().OwnGroup(mv.KeyGroup)
		}
		// Instant routing flip, no propagation, no alignment.
		scaling.RouteToDestinations(rt, plan)
		// Background migration of the old state; InstallGroup merges into the
		// live shells (overwriting concurrent updates — the correctness hole
		// Unbound deliberately accepts).
		kgs := make([]int, len(plan.Moves))
		for i, mv := range plan.Moves {
			kgs[i] = mv.KeyGroup
		}
		mig.MigrateFluid(kgs, signal, nil)
		op.Deployed()
	})
	return op
}

// universalHook implements the universal-key semantics: before any record is
// processed, its key group is made local (as an empty shell if absent), so
// processing never waits for state and never panics on non-local writes.
type universalHook struct{ engine.BaseHook }

func (universalHook) BeforeRecord(in *engine.Instance, r *netsim.Record, _ *netsim.Edge) bool {
	in.Store().OwnGroup(r.KeyGroup)
	return false
}
