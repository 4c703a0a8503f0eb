// Package otfs implements the paper's generalized on-the-fly scaling
// framework (Section II-B, Fig 1): a single coupled scaling barrier injected
// at the sources, propagated with alignment, followed by state migration —
// either all-at-once (Fig 1b) or fluid (Fig 1c).
//
// This is the "OTFS" baseline of Fig 2 and the conceptual frame the paper's
// three challenges (propagation delay, suspension, dependency overhead) are
// defined against.
package otfs

import (
	"drrs/internal/engine"
	"drrs/internal/scaling"
)

// Mechanism is the generalized OTFS baseline.
type Mechanism struct {
	// Fluid selects fluid migration; false selects all-at-once.
	Fluid bool
}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string {
	if m.Fluid {
		return "otfs-fluid"
	}
	return "otfs-allatonce"
}

// Begin implements scaling.Mechanism: one coupled round over the whole plan,
// which runs to completion on Cancel.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) *scaling.Tracked {
	c := scaling.NewCoupledController(plan, scaling.BatchRounds(plan, 0))
	c.Fluid = m.Fluid
	c.InjectAtSources = true
	return c.Begin(rt, done)
}
