// Package scaling defines the mechanism framework every rescaling approach
// plugs into: scale plans, physical deployment, the shared state-migration
// machinery with delay accounting, and the "coupled round" primitive that the
// generalized OTFS framework, Megaphone, and DRRS's ablation variants build
// on.
package scaling

import (
	"fmt"
	"sort"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// Plan describes one scaling operation on one operator.
type Plan struct {
	// Operator is the scaling operator's name.
	Operator string
	// OldParallelism and NewParallelism bound the instance set.
	OldParallelism, NewParallelism int
	// Moves lists the key groups changing owner, in ascending key-group
	// order. Mechanisms keep per-group state in slices indexed by a move's
	// position here (see MoveIndex).
	Moves []dataflow.Move
	// SetupDelay models physical resource initialization (container start,
	// task deployment) before new instances are operational — part of the
	// paper's inherent overhead Lo.
	SetupDelay simtime.Duration

	// at maps each key group to its move's position in Moves, -1 when the
	// group is not moving. The constructors build it; value copies of the
	// plan share it, which is safe because nothing writes it afterwards.
	at []int
}

// newPlan assembles a plan over maxKG key groups and indexes its moves,
// which must be in ascending key-group order.
func newPlan(op string, oldP, newP, maxKG int, moves []dataflow.Move, setup simtime.Duration) Plan {
	at := make([]int, maxKG)
	for kg := range at {
		at[kg] = -1
	}
	for i, m := range moves {
		at[m.KeyGroup] = i
	}
	return Plan{Operator: op, OldParallelism: oldP, NewParallelism: newP, Moves: moves, SetupDelay: setup, at: at}
}

// UniformPlan builds the paper's default plan: scale op to newP instances
// with uniform (contiguous-range) repartitioning.
func UniformPlan(g *dataflow.Graph, op string, newP int, setup simtime.Duration) Plan {
	spec := g.Operator(op)
	if spec == nil {
		panic(fmt.Sprintf("scaling: unknown operator %s", op))
	}
	if !spec.KeyedInput {
		panic(fmt.Sprintf("scaling: operator %s is not keyed", op))
	}
	moves := dataflow.UniformRepartition(spec.MaxKeyGroups, spec.Parallelism, newP)
	return newPlan(op, spec.Parallelism, newP, spec.MaxKeyGroups, moves, setup)
}

// MoveIndex returns the position in Moves of key group kg's move; false when
// kg is not moving or is no key group of the operator.
func (p Plan) MoveIndex(kg int) (int, bool) {
	if uint(kg) >= uint(len(p.at)) || p.at[kg] < 0 {
		return -1, false
	}
	return p.at[kg], true
}

// MovesFrom returns the plan's moves leaving instance idx, in key-group
// order.
func (p Plan) MovesFrom(idx int) []dataflow.Move {
	var out []dataflow.Move
	for _, m := range p.Moves {
		if m.From == idx {
			out = append(out, m)
		}
	}
	return out
}

// PlanFromPlacement builds a plan from the *actual* current state placement
// rather than the nominal contiguous assignment — required when a scaling
// request supersedes a partially completed one (the paper's concurrent-
// execution rule 1): groups the cancelled operation already moved must not
// migrate twice.
func PlanFromPlacement(rt *engine.Runtime, op string, newP int, setup simtime.Duration) Plan {
	spec := rt.Graph.Operator(op)
	cur := len(rt.Instances(op))
	var moves []dataflow.Move
	for kg, from := range holders(rt, op) {
		if from < 0 {
			from = state.OwnerOf(spec.MaxKeyGroups, cur, kg)
		}
		to := state.OwnerOf(spec.MaxKeyGroups, newP, kg)
		if from != to {
			moves = append(moves, dataflow.Move{KeyGroup: kg, From: from, To: to})
		}
	}
	return newPlan(op, cur, newP, spec.MaxKeyGroups, moves, setup)
}

// holders returns each of op's key groups' current holder instance index,
// -1 for a group no instance holds. Instances are walked in order, so when
// two hold a group the later one wins.
func holders(rt *engine.Runtime, op string) []int {
	h := make([]int, rt.Graph.Operator(op).MaxKeyGroups)
	for kg := range h {
		h[kg] = -1
	}
	for _, in := range rt.Instances(op) {
		for kg := range in.Store().Groups() {
			h[kg] = in.Index
		}
	}
	return h
}

// Mechanism is one rescaling approach, lifecycle-observable: Begin returns a
// live Operation handle that reports phase progress (deploy → migrate →
// drain) and accepts supersession via Cancel. Begin is the only entry point;
// mechanisms that cannot stand down run their plan to completion and return a
// Tracked handle (see lifecycle.go).
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Begin starts scaling per plan and returns the operation handle; done
	// (optional) fires when the operation has fully completed — or, after a
	// Cancel, when the work it could not abandon has settled.
	Begin(rt *engine.Runtime, plan Plan, done func()) Operation
}

// Deploy performs the physical half of scaling shared by every mechanism:
// after plan.SetupDelay (resource initialization), it places the new
// instances through the cluster's placement policy (rack-local scale-out vs
// spread is decided here, before wiring, so channel latencies reflect the
// topology path), creates them, wires them, and hands them to then. It also
// marks the scale start in the runtime's metrics.
func Deploy(rt *engine.Runtime, plan Plan, then func(added []*engine.Instance)) {
	rt.Scale.MarkScaleStart(rt.Sched.Now())
	rt.Sched.After(plan.SetupDelay, func() {
		rt.Cluster.PlaceInstances(plan.Operator, plan.OldParallelism, plan.NewParallelism)
		var added []*engine.Instance
		for idx := plan.OldParallelism; idx < plan.NewParallelism; idx++ {
			added = append(added, rt.AddInstance(plan.Operator, idx))
		}
		then(added)
	})
}

// InstallCost is charged at the receiver per migrated chunk
// (deserialization).
const InstallCost = 200 * simtime.Microsecond

// Migrator moves key groups between instances with full delay accounting.
// One Migrator serves one scaling operation.
type Migrator struct {
	rt   *engine.Runtime
	plan Plan
	op   *Tracked

	// migrated and failed count settled groups; each group settles once.
	migrated, failed int
	onAll            func()
}

// NewMigrator returns a migrator for the plan that tells op how many planned
// groups have landed, each time one does. onAll (optional) fires when every
// planned move has settled — completed, or failed against an unhealthy
// destination (the state then sits back at its source and the controller's
// recovery path re-plans it).
func NewMigrator(rt *engine.Runtime, plan Plan, op *Tracked, onAll func()) *Migrator {
	return &Migrator{rt: rt, plan: plan, op: op, onAll: onAll}
}

// settle re-homes a move whose transfer failed: the extracted state merges
// back into the source store and every predecessor's routing entry is pointed
// back at the source, so records keep flowing to where the state actually is.
// The move then counts as settled — sequences continue past it and onAll can
// fire — leaving the re-plan to the control plane's recovery supersession.
func (m *Migrator) settleFailure(kg int, g *state.Group, mv dataflow.Move) {
	from := m.rt.Instance(m.plan.Operator, mv.From)
	from.Store().InstallGroup(kg, g)
	for _, p := range m.rt.PredecessorInstances(m.plan.Operator) {
		if tbl := p.Routing(m.plan.Operator); tbl != nil {
			tbl.SetOwner(kg, mv.From)
		}
	}
	m.failed++
	m.rt.Scale.AddCounter("xfer_settled", 1)
	from.Wake()
	// Records for kg may already be parked at the destination, gated by the
	// mechanism's Processable; now that the repair re-pointed the group away
	// from it, wake it so those records drain (ApplyRecord counts them as
	// stranded losses) instead of suspending the instance forever.
	if to := m.rt.Instance(m.plan.Operator, mv.To); to != nil {
		to.Wake()
	}
}

// install lands kg's state at its destination and accounts for it.
func (m *Migrator) install(to *engine.Instance, kg int, g *state.Group) {
	to.Store().InstallGroup(kg, g)
	m.rt.Scale.UnitMigrated(kg, m.rt.Sched.Now())
	m.migrated++
	m.op.SetMoved(m.migrated)
}

func (m *Migrator) checkAll() {
	if m.migrated+m.failed == len(m.plan.Moves) && m.onAll != nil {
		all := m.onAll
		m.onAll = nil
		all()
	}
}

// MigrateGroup extracts kg from its source instance and transfers it to the
// destination under the given signal label; done (optional) fires after the
// destination installs it. The paper's Fig 12 metrics hang off the signal
// label: FirstMigration on extraction, UnitMigrated on installation.
func (m *Migrator) MigrateGroup(kg int, signal string, done func()) {
	move := m.move(kg)
	from := m.rt.Instance(m.plan.Operator, move.From)
	to := m.rt.Instance(m.plan.Operator, move.To)
	if from == nil || to == nil {
		panic(fmt.Sprintf("scaling: migrate kg %d with missing instances", kg))
	}
	g := from.Store().ExtractGroup(kg)
	m.rt.Scale.FirstMigration(signal, m.rt.Sched.Now())
	bytes := 0
	if g != nil {
		bytes = g.Bytes
	}
	m.rt.Cluster.TransferChecked(from.Endpoint(), to.Endpoint(), bytes, func() {
		m.rt.Sched.After(InstallCost, func() {
			m.install(to, kg, g)
			to.Wake()
			if done != nil {
				done()
			}
			m.checkAll()
		})
	}, func(error) {
		m.settleFailure(kg, g, move)
		if done != nil {
			done()
		}
		m.checkAll()
	})
}

// MigrateSequence migrates the given key groups one after another (fluid
// migration's per-unit serial dependency); done fires after the last one.
func (m *Migrator) MigrateSequence(kgs []int, signal string, done func()) {
	if len(kgs) == 0 {
		if done != nil {
			done()
		}
		return
	}
	m.MigrateGroup(kgs[0], signal, func() {
		m.MigrateSequence(kgs[1:], signal, done)
	})
}

// MigrateAllAtOnce extracts all given groups immediately and ships each
// (source, destination) pair's state as a single batch: nothing is usable at
// a destination until its whole batch lands (the traditional approach in
// Fig 1b).
func (m *Migrator) MigrateAllAtOnce(kgs []int, signal string, done func()) {
	if len(kgs) == 0 {
		if done != nil {
			done()
		}
		return
	}
	type pair struct{ from, to int }
	type item struct {
		kg int
		g  *state.Group
	}
	batches := make(map[pair][]item)
	bytes := make(map[pair]int)
	var pairs []pair
	for _, kg := range kgs {
		mv := m.move(kg)
		from := m.rt.Instance(m.plan.Operator, mv.From)
		g := from.Store().ExtractGroup(kg)
		p := pair{from: mv.From, to: mv.To}
		if _, seen := batches[p]; !seen {
			pairs = append(pairs, p)
		}
		batches[p] = append(batches[p], item{kg: kg, g: g})
		if g != nil {
			bytes[p] += g.Bytes
		}
	}
	// Deterministic transfer launch order (map iteration would vary per run).
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})
	m.rt.Scale.FirstMigration(signal, m.rt.Sched.Now())
	remaining := len(batches)
	for _, p := range pairs {
		p, items := p, batches[p]
		from := m.rt.Instance(m.plan.Operator, p.from)
		to := m.rt.Instance(m.plan.Operator, p.to)
		m.rt.Cluster.TransferChecked(from.Endpoint(), to.Endpoint(), bytes[p], func() {
			m.rt.Sched.After(InstallCost, func() {
				for _, it := range items {
					m.install(to, it.kg, it.g)
				}
				to.Wake()
				remaining--
				if remaining == 0 && done != nil {
					done()
				}
				m.checkAll()
			})
		}, func(error) {
			for _, it := range items {
				m.settleFailure(it.kg, it.g, dataflow.Move{KeyGroup: it.kg, From: p.from, To: p.to})
			}
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
			m.checkAll()
		})
	}
}

// move returns kg's move; kg must be moving.
func (m *Migrator) move(kg int) dataflow.Move {
	i, ok := m.plan.MoveIndex(kg)
	if !ok {
		panic(fmt.Sprintf("scaling: kg %d not in plan", kg))
	}
	return m.plan.Moves[i]
}

// ReconcileRouting points every predecessor's routing entry for op at each
// key group's actual current holder. On a healthy run it is a no-op — every
// entry is rewritten to the value it already has and no events fire. After a
// fault-interrupted operation it repairs the divergence an abandoned
// migration can leave behind: a key group re-homed to its source (or restored
// from checkpoint at a revived instance) while some predecessor table still
// points at the old destination. PlanFromPlacement only emits moves where
// holder and target owner differ, so such a stale route would otherwise never
// be corrected; the control plane calls this before planning every operation.
func ReconcileRouting(rt *engine.Runtime, op string) {
	held := holders(rt, op)
	for _, p := range rt.PredecessorInstances(op) {
		tbl := p.Routing(op)
		if tbl == nil {
			continue
		}
		for kg, h := range held {
			if h >= 0 {
				tbl.SetOwner(kg, h)
			}
		}
	}
}
