package scaling

import (
	"fmt"

	"drrs/internal/engine"
	"drrs/internal/netsim"
)

// Coupled is the generalized OTFS synchronization the paper describes in
// Section II-B, as a Mechanism: a coupled scaling barrier that serves as both
// routing confirmation and migration trigger, propagated in-band and aligned
// with channel blocking at the scaling operator.
//
// One operation runs as a sequence of rounds, each reconfiguring a batch of
// key groups. The paper's coupled baselines are configurations of it:
//   - OTFS:        one round covering every move, injected at the sources.
//   - Megaphone:   many sequential rounds (timestamp-driven reconfigurations)
//     injected at the predecessors.
//   - Naive/Subscale-variant division: many rounds launched concurrently —
//     their alignments interfere through blocked channels (the paper's
//     Fig 7a), which is exactly the behaviour being measured.
//
// Rounds are always injected in the same order at every predecessor, which
// keeps concurrent alignment deadlock-free (each channel delivers round r's
// barrier before round r+1's). The barrier protocol cannot stand down
// mid-round, so the handle Begin returns records a Cancel without honoring
// it. A Coupled value runs one operation.
type Coupled struct {
	// Label is the report name Name returns.
	Label string
	// BatchKGs is the number of key groups per round, in key-group order;
	// <= 0 means one round over every move.
	BatchKGs int
	// Fluid selects per-key-group fluid migration (Fig 1c) over all-at-once
	// (Fig 1b).
	Fluid bool
	// InjectAtSources selects source injection (OTFS) over predecessor
	// injection (Megaphone and division variants).
	InjectAtSources bool
	// Concurrent launches every round immediately instead of waiting for the
	// previous round's migration to finish.
	Concurrent bool
	// Scheduling installs DRRS's Record Scheduling input handler on the
	// scaling instances (the paper's Schedule-only ablation variant). The
	// handler is provided by the caller to avoid an import cycle.
	Scheduling func() engine.InputHandler
	// AnnounceUpfront attributes every round's signal injection to the start
	// of the scaling operation. Megaphone is timestamp-driven: the whole
	// reconfiguration schedule is announced once, and rounds merely take
	// effect as the frontier passes their timestamps — so delay metrics
	// count from the announcement, which is what makes its cumulative
	// propagation delay and dependency overhead dominate the paper's Fig 12.
	AnnounceUpfront bool

	rt      *engine.Runtime
	plan    Plan
	scaleID int64
	mig     *Migrator
	rounds  [][]int // key groups per round
	op      *Tracked

	// alignedBits marks which old instances aligned in which round (bit
	// r*plan.OldParallelism+idx); alignedN counts each round's marks.
	alignedBits []uint64
	alignedN    []int
}

// OTFS is the paper's generalized on-the-fly scaling framework (Section
// II-B, Fig 1): a single coupled scaling barrier injected at the sources,
// propagated with alignment, followed by state migration — fluid (Fig 1c)
// or all-at-once (Fig 1b). It is the "OTFS" baseline of Fig 2 and the
// conceptual frame the paper's three challenges (propagation delay,
// suspension, dependency overhead) are defined against.
func OTFS(fluid bool) *Coupled {
	label := "otfs-allatonce"
	if fluid {
		label = "otfs-fluid"
	}
	return &Coupled{Label: label, Fluid: fluid, InjectAtSources: true}
}

// Megaphone reimplements Megaphone (Hoffmann et al., VLDB 2019) the way the
// DRRS paper's evaluation does: predecessor-injected scaling signals
// (matching Megaphone's separated control plane) driving a timestamp-ordered
// sequence of small reconfigurations, each migrating one batch of batchKGs
// key groups (Megaphone's migration "bin"; <= 0 means 1, the original
// system's finest configuration) with full routing-update + alignment
// synchronization (the paper's Naive Division strategy). The whole schedule
// is announced up front.
//
// The behavioural signature the paper measures: suspension grows slowly
// (each round blocks little), but cumulative propagation delay and average
// dependency overhead dwarf the other mechanisms because every batch waits
// for all earlier batches, stretching the scaling duration by up to 7.24×
// DRRS's.
func Megaphone(batchKGs int) *Coupled {
	return &Coupled{Label: "megaphone", BatchKGs: max(batchKGs, 1), Fluid: true, AnnounceUpfront: true}
}

// Name implements Mechanism.
func (c *Coupled) Name() string { return c.Label }

// prepare splits plan's moves into rounds of at most BatchKGs key groups,
// in key-group order, and sizes the alignment bookkeeping.
func (c *Coupled) prepare(plan Plan) {
	kgs := make([]int, 0, len(plan.Moves))
	for _, m := range plan.Moves {
		kgs = append(kgs, m.KeyGroup)
	}
	n := c.BatchKGs
	if n <= 0 {
		n = len(kgs)
	}
	for len(kgs) > 0 {
		k := min(n, len(kgs))
		c.rounds = append(c.rounds, kgs[:k])
		kgs = kgs[k:]
	}
	c.plan = plan
	c.alignedBits = make([]uint64, (len(c.rounds)*plan.OldParallelism+63)/64)
	c.alignedN = make([]int, len(c.rounds))
}

func (c *Coupled) signal(round int) string {
	return fmt.Sprintf("coupled:%d:r%d", c.scaleID, round)
}

// Begin implements Mechanism: deploy, install hooks, run rounds. The
// operation owes one unit per round, paid when the round's migration ends.
func (c *Coupled) Begin(rt *engine.Runtime, plan Plan, done func()) *Tracked {
	c.prepare(plan)
	c.rt = rt
	c.scaleID = rt.NextScaleID()
	c.op = NewTracked(rt, c.plan, func() {
		c.teardown()
		if done != nil {
			done()
		}
	})
	c.op.Owe(len(c.rounds))
	// Units are assigned to their round's signal for Fig 12b accounting.
	for r, kgs := range c.rounds {
		for _, kg := range kgs {
			rt.Scale.UnitAssigned(kg, c.signal(r))
		}
	}
	c.mig = NewMigrator(rt, c.plan, c.op, nil)
	if c.AnnounceUpfront {
		for r := range c.rounds {
			rt.Scale.SignalInjected(c.signal(r), rt.Sched.Now())
		}
	}
	Deploy(rt, c.plan, func() {
		// Hooks on the scaling operator's instances.
		for _, in := range rt.Instances(c.plan.Operator) {
			in.SetHook(&coupledOpHook{c: c})
			if c.Scheduling != nil {
				in.SetHandler(c.Scheduling())
			}
		}
		// Hooks on direct predecessors (they update routing tables).
		for _, p := range rt.PredecessorInstances(c.plan.Operator) {
			p.SetHook(&coupledPredHook{c: c})
		}
		if c.Concurrent {
			for r := range c.rounds {
				c.injectRound(r)
			}
		} else {
			c.injectRound(0)
		}
		c.op.Deployed()
	})
	return c.op
}

// injectRound starts round r's synchronization.
func (c *Coupled) injectRound(r int) {
	if r >= len(c.rounds) {
		return
	}
	if !c.AnnounceUpfront {
		c.rt.Scale.SignalInjected(c.signal(r), c.rt.Sched.Now())
	}
	barrier := &netsim.ScaleBarrier{ScaleID: c.scaleID, Round: r}
	if c.InjectAtSources {
		c.rt.Sched.After(engine.ControlLatency, func() {
			for _, name := range c.rt.Graph.Topological() {
				if c.rt.Graph.Operator(name).Source == nil {
					continue
				}
				for _, src := range c.rt.Instances(name) {
					// Sources that are also direct predecessors update their
					// routing when emitting (they are their own injection
					// point).
					if c.isPred(src) {
						c.applyRouting(src, r)
					}
					src.BroadcastControl(barrier)
				}
			}
		})
	} else {
		c.rt.Sched.After(engine.ControlLatency, func() {
			for _, p := range c.rt.PredecessorInstances(c.plan.Operator) {
				c.applyRouting(p, r)
				p.BroadcastControl(barrier)
			}
		})
	}
}

func (c *Coupled) isPred(in *engine.Instance) bool {
	for _, p := range c.rt.Graph.Predecessors(c.plan.Operator) {
		if in.Spec.Name == p {
			return true
		}
	}
	return false
}

// applyRouting repoints round r's key groups in one predecessor's table.
func (c *Coupled) applyRouting(p *engine.Instance, r int) {
	tbl := p.Routing(c.plan.Operator)
	for _, kg := range c.rounds[r] {
		if i, ok := c.plan.MoveIndex(kg); ok {
			tbl.SetOwner(kg, c.plan.Moves[i].To)
		}
	}
}

// oldInstanceAligned is called when an original scaling instance finishes
// alignment for round r; migration for the round starts once every original
// instance aligned. A repeated index counts once.
func (c *Coupled) oldInstanceAligned(idx, r int) {
	bit := r*c.plan.OldParallelism + idx
	if w, m := bit/64, uint64(1)<<(bit%64); c.alignedBits[w]&m == 0 {
		c.alignedBits[w] |= m
		c.alignedN[r]++
	}
	if c.alignedN[r] < c.plan.OldParallelism {
		return
	}
	// All original instances aligned: migrate this round's groups.
	sig := c.signal(r)
	onRoundDone := func() {
		c.op.Pay(1)
		if !c.Concurrent {
			c.injectRound(r + 1)
		}
	}
	if c.Fluid {
		c.mig.MigrateFluid(c.rounds[r], sig, onRoundDone)
	} else {
		c.mig.MigrateAllAtOnce(c.rounds[r], sig, onRoundDone)
	}
}

// teardown removes the hooks once the operation finishes: the scaling
// machinery leaves the runtime.
func (c *Coupled) teardown() {
	for _, in := range c.rt.Instances(c.plan.Operator) {
		in.SetHook(nil)
		if c.Scheduling != nil {
			in.SetHandler(&engine.NativeHandler{})
		}
		in.Wake()
	}
	for _, p := range c.rt.PredecessorInstances(c.plan.Operator) {
		p.SetHook(nil)
	}
}

// coupledPredHook updates routing tables at predecessor operators when the
// source-injected barrier passes through (predecessor-injected rounds update
// routing at injection instead and the hook only forwards).
type coupledPredHook struct {
	engine.BaseHook
	c *Coupled
}

func (h *coupledPredHook) OnScaleMessage(in *engine.Instance, m netsim.Message, e *netsim.Edge) bool {
	sb, ok := m.(*netsim.ScaleBarrier)
	if !ok || sb.ScaleID != h.c.scaleID {
		return false
	}
	key := engine.AlignKey{Kind: "cp", ID: sb.ScaleID, Round: sb.Round}
	if !in.AlignOn(key, e) {
		return true
	}
	if h.c.InjectAtSources && in.Spec.Source == nil {
		// Routing confirmation rides on the barrier: update before
		// propagating, per the generalized OTFS framework.
		h.c.applyRouting(in, sb.Round)
	}
	in.BroadcastControl(sb)
	in.ReleaseAlignment(key)
	return true
}

// coupledOpHook runs on the scaling operator's instances: alignment at the
// originals triggers migration; record processability gates on migrated
// state at the new instances.
type coupledOpHook struct {
	engine.BaseHook
	c *Coupled
}

func (h *coupledOpHook) OnScaleMessage(in *engine.Instance, m netsim.Message, e *netsim.Edge) bool {
	sb, ok := m.(*netsim.ScaleBarrier)
	if !ok || sb.ScaleID != h.c.scaleID {
		return false
	}
	key := engine.AlignKey{Kind: "op", ID: sb.ScaleID, Round: sb.Round}
	if !in.AlignOn(key, e) {
		return true
	}
	in.BroadcastControl(sb)
	in.ReleaseAlignment(key)
	if in.Index < h.c.plan.OldParallelism {
		h.c.oldInstanceAligned(in.Index, sb.Round)
	}
	return true
}

func (h *coupledOpHook) Processable(in *engine.Instance, r *netsim.Record, _ *netsim.Edge) bool {
	if _, ok := h.c.plan.MoveIndex(r.KeyGroup); !ok {
		return true
	}
	// A migrating group's records are processable wherever its state
	// currently lives.
	if in.Store().HasGroup(r.KeyGroup) {
		return true
	}
	// No state here and the routing repair (settleFailure) has re-pointed
	// the group elsewhere: the chunk this record was waiting on will never
	// land. Admit it so ApplyRecord counts the strand, instead of gating the
	// instance on state that isn't coming.
	for _, p := range in.Runtime().PredecessorInstances(in.Spec.Name) {
		if tbl := p.Routing(in.Spec.Name); tbl != nil {
			return tbl.Owner(r.KeyGroup) != in.Index
		}
	}
	return false
}
