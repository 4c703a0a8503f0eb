// Package megaphone reimplements Megaphone (Hoffmann et al., VLDB 2019) the
// way the DRRS paper's evaluation does: predecessor-injected scaling signals
// (matching Megaphone's separated control plane) driving a timestamp-ordered
// sequence of small reconfigurations, each migrating one batch of key groups
// with full routing-update + alignment synchronization (the paper's Naive
// Division strategy).
//
// The behavioural signature the paper measures: suspension grows slowly
// (each round blocks little), but cumulative propagation delay and average
// dependency overhead dwarf the other mechanisms because every batch waits
// for all earlier batches, stretching the scaling duration by up to 7.24×
// DRRS's.
package megaphone

import (
	"drrs/internal/engine"
	"drrs/internal/scaling"
)

// Mechanism is the Megaphone baseline.
type Mechanism struct {
	// BatchKGs is the number of key groups reconfigured per round
	// (Megaphone's migration "bin" granularity). Default 1: the original
	// system's finest, fully fluid configuration.
	BatchKGs int
}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string { return "megaphone" }

// Begin implements scaling.Mechanism. Megaphone announces its whole
// reconfiguration schedule up front, so a Cancel is recorded but the
// announced rounds run to completion.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) *scaling.Tracked {
	batch := m.BatchKGs
	if batch <= 0 {
		batch = 1
	}
	c := scaling.NewCoupledController(plan, scaling.BatchRounds(plan, batch))
	c.Fluid = true
	c.InjectAtSources = false // predecessor injection
	c.Concurrent = false      // timestamp-driven: strictly sequential rounds
	c.AnnounceUpfront = true  // the full schedule is announced at scale start
	return c.Begin(rt, done)
}
