package scaling

import (
	"fmt"
	"sort"

	"drrs/internal/engine"
	"drrs/internal/netsim"
)

// CoupledController implements the generalized OTFS synchronization the paper
// describes in Section II-B: a coupled scaling barrier that serves as both
// routing confirmation and migration trigger, propagated in-band and aligned
// with channel blocking at the scaling operator.
//
// One controller drives one scaling operation as a sequence of rounds, each
// reconfiguring a batch of key groups:
//   - OTFS:        one round covering every move, injected at the sources.
//   - Megaphone:   many sequential rounds (timestamp-driven reconfigurations)
//     injected at the predecessors.
//   - Naive/Subscale-variant division: many rounds launched concurrently —
//     their alignments interfere through blocked channels (the paper's
//     Fig 7a), which is exactly the behaviour being measured.
//
// Rounds are always injected in the same order at every predecessor, which
// keeps concurrent alignment deadlock-free (each channel delivers round r's
// barrier before round r+1's).
type CoupledController struct {
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
	nextInj int     // next round to inject
	op      *Tracked

	// alignedBits marks which old instances aligned in which round (bit
	// r*oldCount+idx); alignedN counts each round's marks.
	alignedBits []uint64
	alignedN    []int
	migDone     map[int]bool // round → migration complete
	oldCount    int
	finished    bool
}

// NewCoupledController builds a controller over the plan with the given
// round batches (each a slice of key groups). Batches must cover the plan's
// moves exactly.
func NewCoupledController(plan Plan, rounds [][]int) *CoupledController {
	return &CoupledController{
		plan:        plan,
		rounds:      rounds,
		alignedBits: make([]uint64, (len(rounds)*plan.OldParallelism+63)/64),
		alignedN:    make([]int, len(rounds)),
		migDone:     make(map[int]bool),
		oldCount:    plan.OldParallelism,
	}
}

// BatchRounds splits the plan's moves into round batches of at most n key
// groups, in key-group order.
func BatchRounds(plan Plan, n int) [][]int {
	kgs := make([]int, 0, len(plan.Moves))
	for _, m := range plan.Moves {
		kgs = append(kgs, m.KeyGroup)
	}
	if n <= 0 {
		n = len(kgs)
	}
	var out [][]int
	for len(kgs) > 0 {
		k := n
		if k > len(kgs) {
			k = len(kgs)
		}
		out = append(out, kgs[:k])
		kgs = kgs[k:]
	}
	return out
}

func (c *CoupledController) signal(round int) string {
	return fmt.Sprintf("coupled:%d:r%d", c.scaleID, round)
}

// Begin implements the mechanism flow — deploy, install hooks, run rounds —
// and returns the operation's handle. The barrier protocol cannot stand down
// mid-round, so the handle records a Cancel without honoring it.
func (c *CoupledController) Begin(rt *engine.Runtime, done func()) Operation {
	c.rt = rt
	c.scaleID = rt.NextScaleID()
	c.op = NewTracked(c.plan, done)
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
	Deploy(rt, c.plan, func(added []*engine.Instance) {
		c.op.Deployed()
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
	})
	return c.op
}

// injectRound starts round r's synchronization.
func (c *CoupledController) injectRound(r int) {
	if r >= len(c.rounds) {
		return
	}
	c.nextInj = r + 1
	if !c.AnnounceUpfront {
		c.rt.Scale.SignalInjected(c.signal(r), c.rt.Sched.Now())
	}
	barrier := func() *netsim.ScaleBarrier {
		return &netsim.ScaleBarrier{ScaleID: c.scaleID, Round: r}
	}
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
					src.BroadcastControl(barrier())
				}
			}
		})
	} else {
		c.rt.Sched.After(engine.ControlLatency, func() {
			for _, p := range c.rt.PredecessorInstances(c.plan.Operator) {
				c.applyRouting(p, r)
				p.BroadcastControl(barrier())
			}
		})
	}
}

func (c *CoupledController) isPred(in *engine.Instance) bool {
	for _, p := range c.rt.Graph.Predecessors(c.plan.Operator) {
		if in.Spec.Name == p {
			return true
		}
	}
	return false
}

// applyRouting repoints round r's key groups in one predecessor's table.
func (c *CoupledController) applyRouting(p *engine.Instance, r int) {
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
func (c *CoupledController) oldInstanceAligned(idx, r int) {
	bit := r*c.oldCount + idx
	if w, m := bit/64, uint64(1)<<(bit%64); c.alignedBits[w]&m == 0 {
		c.alignedBits[w] |= m
		c.alignedN[r]++
	}
	if c.alignedN[r] < c.oldCount {
		return
	}
	// All original instances aligned: migrate this round's groups.
	sig := c.signal(r)
	onRoundDone := func() {
		c.migDone[r] = true
		c.checkComplete()
		if !c.Concurrent {
			if r+1 < len(c.rounds) {
				c.injectRound(r + 1)
			}
		}
	}
	if c.Fluid {
		// Per-source sequential chains run in parallel across sources.
		bySrc := make(map[int][]int)
		var srcs []int
		for _, kg := range c.rounds[r] {
			from := c.mig.move(kg).From
			if _, seen := bySrc[from]; !seen {
				srcs = append(srcs, from)
			}
			bySrc[from] = append(bySrc[from], kg)
		}
		// Deterministic launch order: map iteration order would perturb event
		// sequencing (and therefore run results) between identical runs.
		sort.Ints(srcs)
		remaining := len(bySrc)
		for _, src := range srcs {
			c.mig.MigrateSequence(bySrc[src], sig, func() {
				remaining--
				if remaining == 0 {
					onRoundDone()
				}
			})
		}
	} else {
		c.mig.MigrateAllAtOnce(c.rounds[r], sig, onRoundDone)
	}
}

func (c *CoupledController) checkComplete() {
	if c.finished || len(c.migDone) < len(c.rounds) {
		return
	}
	c.finished = true
	c.rt.Scale.MarkScaleEnd(c.rt.Sched.Now())
	// Remove hooks; scaling machinery leaves the runtime.
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
	c.op.Finish()
}

// coupledPredHook updates routing tables at predecessor operators when the
// source-injected barrier passes through (predecessor-injected rounds update
// routing at injection instead and the hook only forwards).
type coupledPredHook struct {
	engine.BaseHook
	c *CoupledController
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
	in.BroadcastControl(&netsim.ScaleBarrier{ScaleID: sb.ScaleID, Round: sb.Round})
	in.ReleaseAlignment(key)
	return true
}

// coupledOpHook runs on the scaling operator's instances: alignment at the
// originals triggers migration; record processability gates on migrated
// state at the new instances.
type coupledOpHook struct {
	engine.BaseHook
	c *CoupledController
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
	in.BroadcastControl(&netsim.ScaleBarrier{ScaleID: sb.ScaleID, Round: sb.Round})
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
