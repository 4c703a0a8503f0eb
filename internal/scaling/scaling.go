// Package scaling defines the mechanism framework every rescaling approach
// plugs into: scale plans, physical deployment, the shared state-migration
// machinery with delay accounting, and the "coupled round" primitive that the
// generalized OTFS framework, Megaphone, and DRRS's ablation variants build
// on.
package scaling

import (
	"fmt"
	"sort"

	"drrs/internal/cluster"
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
	// Moves lists the key groups changing owner.
	Moves []dataflow.Move
	// SetupDelay models physical resource initialization (container start,
	// task deployment) before new instances are operational — part of the
	// paper's inherent overhead Lo.
	SetupDelay simtime.Duration

	// index accelerates MovesFrom/Move lookups; built by Finalize (the plan
	// constructors call it). Plans assembled literally fall back to scanning
	// Moves. The index is shared by value copies of the plan, which is safe:
	// it is read-only after Finalize.
	index *planIndex
}

// planIndex is the precomputed lookup structure over Plan.Moves: the
// migrators resolve per-source move lists and per-key-group moves on every
// migration step, which was an O(moves) scan per call.
type planIndex struct {
	bySrc map[int][]dataflow.Move
	byKG  map[int]int // key group → position in Moves
}

// Finalize builds the plan's move index. It is idempotent; call it after
// assembling Moves by hand to get indexed lookups (the constructors in this
// package already do).
func (p *Plan) Finalize() {
	idx := &planIndex{
		bySrc: make(map[int][]dataflow.Move),
		byKG:  make(map[int]int, len(p.Moves)),
	}
	for i, m := range p.Moves {
		idx.bySrc[m.From] = append(idx.bySrc[m.From], m)
		idx.byKG[m.KeyGroup] = i
	}
	p.index = idx
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
	p := Plan{
		Operator:       op,
		OldParallelism: spec.Parallelism,
		NewParallelism: newP,
		Moves:          dataflow.UniformRepartition(spec.MaxKeyGroups, spec.Parallelism, newP),
		SetupDelay:     setup,
	}
	p.Finalize()
	return p
}

// NewRouting builds the routing table for the post-scaling assignment.
func (p Plan) NewRouting(maxKG int) *dataflow.RoutingTable {
	rt := dataflow.NewRoutingTable(maxKG, p.OldParallelism)
	for _, m := range p.Moves {
		rt.SetOwner(m.KeyGroup, m.To)
	}
	return rt
}

// MovesFrom returns the plan's moves leaving instance idx, in key-group
// order. Finalized plans answer from the per-source index; hand-assembled
// plans fall back to scanning Moves.
func (p Plan) MovesFrom(idx int) []dataflow.Move {
	if p.index != nil {
		return p.index.bySrc[idx]
	}
	var out []dataflow.Move
	for _, m := range p.Moves {
		if m.From == idx {
			out = append(out, m)
		}
	}
	return out
}

// Move returns the plan's move for key group kg, if any.
func (p Plan) Move(kg int) (dataflow.Move, bool) {
	if p.index != nil {
		if i, ok := p.index.byKG[kg]; ok {
			return p.Moves[i], true
		}
		return dataflow.Move{}, false
	}
	for _, m := range p.Moves {
		if m.KeyGroup == kg {
			return m, true
		}
	}
	return dataflow.Move{}, false
}

// KeyGroupSet is a bitset over key-group ids: O(1) membership, deterministic
// ascending iteration, and no per-run map allocation churn — it replaces the
// map[int]bool the per-record Processable gate used to consult.
type KeyGroupSet struct {
	bits []uint64
	n    int
}

// Has reports membership. Out-of-range ids are simply absent.
func (s KeyGroupSet) Has(kg int) bool {
	w := kg >> 6
	if kg < 0 || w >= len(s.bits) {
		return false
	}
	return s.bits[w]&(1<<(uint(kg)&63)) != 0
}

// Len reports the number of key groups in the set.
func (s KeyGroupSet) Len() int { return s.n }

// Slice materializes the members in ascending order.
func (s KeyGroupSet) Slice() []int {
	out := make([]int, 0, s.n)
	for w, bits := range s.bits {
		for b := 0; bits != 0; b++ {
			if bits&1 != 0 {
				out = append(out, w<<6|b)
			}
			bits >>= 1
		}
	}
	return out
}

func (s *KeyGroupSet) add(kg int) {
	w := kg >> 6
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	mask := uint64(1) << (uint(kg) & 63)
	if s.bits[w]&mask == 0 {
		s.bits[w] |= mask
		s.n++
	}
}

// Moved returns the set of migrating key groups.
func (p Plan) Moved() KeyGroupSet {
	var s KeyGroupSet
	for _, m := range p.Moves {
		s.add(m.KeyGroup)
	}
	return s
}

// PlanFromPlacement builds a plan from the *actual* current state placement
// rather than the nominal contiguous assignment — required when a scaling
// request supersedes a partially completed one (the paper's concurrent-
// execution rule 1): groups the cancelled operation already moved must not
// migrate twice.
func PlanFromPlacement(rt *engine.Runtime, op string, newP int, setup simtime.Duration) Plan {
	spec := rt.Graph.Operator(op)
	cur := len(rt.Instances(op))
	holder := make(map[int]int, spec.MaxKeyGroups)
	for _, in := range rt.Instances(op) {
		for _, kg := range in.Store().Groups() {
			holder[kg] = in.Index
		}
	}
	var moves []dataflow.Move
	for kg := 0; kg < spec.MaxKeyGroups; kg++ {
		from, ok := holder[kg]
		if !ok {
			from = state.OwnerOf(spec.MaxKeyGroups, cur, kg)
		}
		to := state.OwnerOf(spec.MaxKeyGroups, newP, kg)
		if from != to {
			moves = append(moves, dataflow.Move{KeyGroup: kg, From: from, To: to})
		}
	}
	p := Plan{
		Operator:       op,
		OldParallelism: cur,
		NewParallelism: newP,
		Moves:          moves,
		SetupDelay:     setup,
	}
	p.Finalize()
	return p
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

// Migrator moves key groups between instances with full delay accounting.
// One Migrator serves one scaling operation.
type Migrator struct {
	rt   *engine.Runtime
	plan Plan
	op   *Tracked
	// InstallCost is charged at the receiver per chunk (deserialization).
	InstallCost simtime.Duration

	migrated map[int]bool
	failed   map[int]bool
	total    int
	onAll    func()
}

// NewMigrator returns a migrator for the plan that tells op how many planned
// groups have landed, each time one does. onAll (optional) fires when every
// planned move has settled — completed, or failed against an unhealthy
// destination (the state then sits back at its source and the controller's
// recovery path re-plans it).
func NewMigrator(rt *engine.Runtime, plan Plan, op *Tracked, onAll func()) *Migrator {
	return &Migrator{
		rt:          rt,
		plan:        plan,
		op:          op,
		InstallCost: 200 * simtime.Microsecond,
		migrated:    make(map[int]bool),
		failed:      make(map[int]bool),
		onAll:       onAll,
		total:       len(plan.Moves),
	}
}

// Failed reports how many moves failed against an unhealthy destination.
func (m *Migrator) Failed() int { return len(m.failed) }

// settle re-homes a move whose transfer failed: the extracted state merges
// back into the source store and every predecessor's routing entry is pointed
// back at the source, so records keep flowing to where the state actually is.
// The move then counts as settled — sequences continue past it and onAll can
// fire — leaving the re-plan to the control plane's recovery supersession.
// The typed cause distinguishes transient failures (the cluster-level retry
// budget ran out against a partition or a restartable crash) from fatal ones
// (the destination node is gone) in the mechanism's counters.
func (m *Migrator) settleFailure(kg int, g *state.Group, mv dataflow.Move, err error) {
	from := m.rt.Instance(m.plan.Operator, mv.From)
	from.Store().InstallGroup(kg, g)
	for _, p := range m.rt.PredecessorInstances(m.plan.Operator) {
		if tbl := p.Routing(m.plan.Operator); tbl != nil {
			tbl.SetOwner(kg, mv.From)
		}
	}
	m.failed[kg] = true
	if cluster.IsTransient(err) {
		m.rt.Scale.AddCounter("xfer_settled_transient", 1)
	} else {
		m.rt.Scale.AddCounter("xfer_settled_fatal", 1)
	}
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
	m.migrated[kg] = true
	m.op.SetMoved(len(m.migrated))
}

func (m *Migrator) checkAll() {
	if len(m.migrated)+len(m.failed) == m.total && m.onAll != nil {
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
	move := m.findMove(kg)
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
		m.rt.Sched.After(m.InstallCost, func() {
			m.install(to, kg, g)
			to.Wake()
			if done != nil {
				done()
			}
			m.checkAll()
		})
	}, func(err error) {
		m.settleFailure(kg, g, move, err)
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
		mv := m.findMove(kg)
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
			m.rt.Sched.After(m.InstallCost, func() {
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
		}, func(err error) {
			for _, it := range items {
				m.settleFailure(it.kg, it.g, dataflow.Move{KeyGroup: it.kg, From: p.from, To: p.to}, err)
			}
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
			m.checkAll()
		})
	}
}

func (m *Migrator) findMove(kg int) dataflow.Move {
	if mv, ok := m.plan.Move(kg); ok {
		return mv
	}
	panic(fmt.Sprintf("scaling: kg %d not in plan", kg))
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
	holder := make(map[int]int)
	for _, in := range rt.Instances(op) {
		for _, kg := range in.Store().Groups() {
			holder[kg] = in.Index
		}
	}
	kgs := make([]int, 0, len(holder))
	for kg := range holder {
		kgs = append(kgs, kg)
	}
	sort.Ints(kgs)
	for _, p := range rt.PredecessorInstances(op) {
		tbl := p.Routing(op)
		if tbl == nil {
			continue
		}
		for _, kg := range kgs {
			tbl.SetOwner(kg, holder[kg])
		}
	}
}
