// Package core implements DRRS — Decoupling & Re-routing, Record Scheduling,
// and Subscale Division — the paper's primary contribution.
//
// The mechanism mirrors the paper's architecture (Fig 8):
//
//   - Scale Coordinator (A): the Mechanism itself; it deploys instances
//     (Topology Updater A0 via engine.AddInstance) and drives subscales
//     (Subscale Handler A1).
//   - Scale Executor (B): the per-instance pieces — the opHook (Barrier
//     Handler B2 and Re-route Manager B4), the SchedulingHandler replacing
//     the native input handler (Scale Input Handler B1, Suspend Manager B3).
//   - Scale Planner (C): Plan (from the scaling framework) plus the
//     lexicographic subscale divider and the greedy fewest-keys-first
//     subscale scheduler with the per-node concurrency threshold (C0/C1).
//
// The paper's Fig 14 ablation keeps one of the three techniques at a time.
// The Mechanism always runs Decoupling & Re-routing, with Record Scheduling
// and Subscale Division as Options; the variants without DR are
// configurations of the coupled-barrier mechanism (ScheduleOnly,
// SubscaleOnly).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
)

// Options selects which DRRS techniques run alongside Decoupling and
// Re-routing (trigger/confirm barriers with predecessor injection,
// output-cache redirection, and Ep-record re-routing), which always runs.
// Options{} is Fig 14's DR-only variant.
type Options struct {
	// Schedule enables Record Scheduling (inter- and intra-channel).
	Schedule bool
	// Subscale enables Subscale Division.
	Subscale bool

	// SubscaleKGs is the target key groups per subscale (default 8).
	SubscaleKGs int
	// NodeConcurrency caps concurrent subscales touching one node
	// (default 2, the paper's threshold).
	NodeConcurrency int
	// BufferDepth bounds the intra-channel scan (SchedulingHandler.Depth;
	// default 200, the paper's pre-serialized record buffer).
	BufferDepth int
}

// subscaleKGs is the default subscale size in key groups.
const subscaleKGs = 8

// FullDRRS returns the complete system's options.
func FullDRRS() Options {
	return Options{Schedule: true, Subscale: true}
}

// ScheduleOnly is Fig 14's Schedule-only variant: DRRS without Decoupling &
// Re-routing or Subscale Division. Synchronization falls back to the
// generalized OTFS framework's coupled barrier — one fluid round, injected
// at the predecessors — with Record Scheduling installed on the scaling
// instances.
func ScheduleOnly() *scaling.Coupled {
	return &scaling.Coupled{
		Label:      "drrs-schedule",
		Fluid:      true,
		Scheduling: func() engine.InputHandler { return &SchedulingHandler{} },
	}
}

// SubscaleOnly is Fig 14's Subscale-only variant: DRRS without Decoupling &
// Re-routing or Record Scheduling. Without DR, Subscale Division degrades to
// Naive Division — coupled rounds of subscaleKGs key groups, all launched
// at once, whose alignments interfere through blocked channels (Fig 7a).
func SubscaleOnly() *scaling.Coupled {
	return &scaling.Coupled{Label: "drrs-subscale", BatchKGs: subscaleKGs, Fluid: true, Concurrent: true}
}

func (o *Options) fillDefaults() {
	if o.SubscaleKGs <= 0 {
		o.SubscaleKGs = subscaleKGs
	}
	if o.NodeConcurrency <= 0 {
		o.NodeConcurrency = 2
	}
}

// subscale is one independently migrating subset of the scaling operation.
type subscale struct {
	id     int
	signal string
	moves  []dataflow.Move // ascending key group, like plan.Moves
	srcs   []int           // unique source instances, ascending
	dsts   []int           // unique destination instances, ascending
	// srcDsts lists, by position in srcs, the destinations that source's
	// moves go to, ascending.
	srcDsts [][]int

	triggered []bool // by position in srcs: migration started
	// confirmSeen marks rerouted confirm consumption per (dst, src, pred)
	// channel — the per-channel "fluid confirmation" — at the position
	// Mechanism.confirmAt gives it.
	confirmSeen []bool
	// confirmsLeftAt counts outstanding confirms per destination, by
	// position in dsts (implicit alignment without Record Scheduling).
	confirmsLeftAt []int
	confirmsLeft   int
	chunksLeft     int
	completed      bool
	// held is the subscale's heldKeys score, set before each scheduling
	// sort.
	held int
}

func (s *subscale) kgsFrom(src int) []int {
	var out []int
	for _, mv := range s.moves {
		if mv.From == src {
			out = append(out, mv.KeyGroup)
		}
	}
	return out
}

// dstsOf lists the destinations src's moves go to, ascending; none when src
// is not one of the subscale's sources.
func (s *subscale) dstsOf(src int) []int {
	if i := position(s.srcs, src); i >= 0 {
		return s.srcDsts[i]
	}
	return nil
}

// position returns x's index in the ascending xs, or -1.
func position(xs []int, x int) int {
	if i, ok := slices.BinarySearch(xs, x); ok {
		return i
	}
	return -1
}

// kgStatus is one planned key group's entry in the coordinator's table.
type kgStatus struct {
	sub   *subscale
	phase scaling.MovePhase
}

// Mechanism is the DRRS scale coordinator.
type Mechanism struct {
	Opt Options

	rt      *engine.Runtime
	plan    scaling.Plan
	op      string
	scaleID int64
	tracked *scaling.Tracked
	mig     *scaling.Migrator

	// subs is indexed by subscale id.
	subs    []*subscale
	pending []*subscale
	// kgs holds each planned key group's subscale and phase, by the
	// group's move position in plan.Moves.
	kgs []kgStatus

	rerouteEdges  map[[2]int]*netsim.Edge
	edgeIsReroute map[*netsim.Edge]bool
	reroutesInto  map[int][]*netsim.Edge

	preds []*engine.Instance
	// predAt maps each predecessor instance to its position in preds.
	predAt     map[netsim.Endpoint]int
	activeNode map[string]int
	active     int
	// MaxActive records the peak number of concurrently running subscales
	// (observable evidence for the scheduler's concurrency threshold).
	MaxActive int
	finished  bool
	cleaned   bool
}

// New returns a DRRS mechanism with the given options.
func New(opt Options) *Mechanism {
	opt.fillDefaults()
	return &Mechanism{Opt: opt}
}

// Name implements scaling.Mechanism: "drrs" for the full system, "drrs-dr"
// otherwise.
func (m *Mechanism) Name() string {
	if m.Opt.Schedule && m.Opt.Subscale {
		return "drrs"
	}
	return "drrs-dr"
}

// Begin implements scaling.Mechanism. The operation owes one unit per
// subscale, paid when the subscale completes, and honors cancellation —
// subscales not yet launched are dropped and the operation settles early
// (the paper's concurrent-execution rule). Once it finishes, the machinery
// is torn down as soon as the re-route paths have drained.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) *scaling.Tracked {
	m.scaleID = rt.NextScaleID()
	m.rt = rt
	m.plan = plan
	m.op = plan.Operator
	m.tracked = scaling.NewTracked(rt, plan, func() {
		m.finished = true
		if done != nil {
			done()
		}
		m.maybeCleanup()
	})
	m.tracked.OnCancel(m.cancel)
	m.mig = scaling.NewMigrator(rt, plan, m.tracked, m.observe)
	m.kgs = make([]kgStatus, len(plan.Moves))
	m.rerouteEdges = make(map[[2]int]*netsim.Edge)
	m.edgeIsReroute = make(map[*netsim.Edge]bool)
	m.reroutesInto = make(map[int][]*netsim.Edge)
	m.activeNode = make(map[string]int)
	m.subs = m.divide()
	m.tracked.Owe(len(m.subs))
	m.pending = append([]*subscale(nil), m.subs...)
	for _, s := range m.subs {
		for _, mv := range s.moves {
			_, st := m.entry(mv.KeyGroup)
			st.sub = s
			rt.Scale.UnitAssigned(mv.KeyGroup, s.signal)
		}
	}

	scaling.Deploy(rt, plan, func() {
		m.preds = rt.PredecessorInstances(m.op)
		m.predAt = make(map[netsim.Endpoint]int, len(m.preds))
		for i, p := range m.preds {
			m.predAt[netsim.Endpoint{Op: p.Spec.Name, Index: p.Index}] = i
		}
		// Count expected confirms: one per (pred, src, dst) triple.
		for _, s := range m.subs {
			s.confirmSeen = make([]bool, len(s.dsts)*len(s.srcs)*len(m.preds))
			s.confirmsLeftAt = make([]int, len(s.dsts))
			for _, dsts := range s.srcDsts {
				for _, dst := range dsts {
					s.confirmsLeftAt[position(s.dsts, dst)] += len(m.preds)
					s.confirmsLeft += len(m.preds)
				}
			}
			s.chunksLeft = len(s.moves)
		}
		// Re-route paths between every (src, dst) pair with a move.
		for _, s := range m.subs {
			for _, mv := range s.moves {
				key := [2]int{mv.From, mv.To}
				if m.rerouteEdges[key] == nil {
					e := rt.ConnectInstances(rt.Instance(m.op, mv.From), rt.Instance(m.op, mv.To))
					m.rerouteEdges[key] = e
					m.edgeIsReroute[e] = true
					m.reroutesInto[mv.To] = append(m.reroutesInto[mv.To], e)
				}
			}
		}
		// Executors: hook + the DR input handler (re-route channels are
		// out-of-band special events; Record Scheduling when enabled) on
		// every scaling-operator instance.
		for _, in := range rt.Instances(m.op) {
			in.SetHook(&opHook{m: m})
			in.SetHandler(&drHandler{
				m:        m,
				schedule: m.Opt.Schedule,
				sched:    SchedulingHandler{Depth: m.Opt.BufferDepth},
			})
		}
		m.scheduleNext()
		m.tracked.Deployed()
	})
	return m.tracked
}

// confirmAt returns the position in s.confirmSeen of the channel that
// carries predecessor pred's confirm from source instance src to
// destination instance dst, or -1 when the channel is not one of s's.
func (m *Mechanism) confirmAt(s *subscale, dst, src int, pred netsim.Endpoint) int {
	d, i := position(s.dsts, dst), position(s.srcs, src)
	p, ok := m.predAt[pred]
	if d < 0 || i < 0 || !ok {
		return -1
	}
	return (d*len(s.srcs)+i)*len(m.preds) + p
}

// entry returns kg's move and its entry in the coordinator's table; a nil
// entry when kg is not moving.
func (m *Mechanism) entry(kg int) (dataflow.Move, *kgStatus) {
	i, ok := m.plan.MoveIndex(kg)
	if !ok {
		return dataflow.Move{}, nil
	}
	return m.plan.Moves[i], &m.kgs[i]
}

// divide implements the default Subscale Scheduler's partitioning (C1):
// moves grouped per (source, destination) pair, lexicographically chunked
// into subsets as equally sized as possible, bounded by SubscaleKGs. Without
// Subscale Division the whole plan forms a single subscale; a plan with no
// moves forms none.
func (m *Mechanism) divide() []*subscale {
	mk := func(id int, moves []dataflow.Move) *subscale {
		s := &subscale{
			id:     id,
			signal: fmt.Sprintf("drrs:%d:sub%d", m.scaleID, id),
			moves:  moves,
		}
		srcs, dsts := make([]int, len(moves)), make([]int, len(moves))
		for i, mv := range moves {
			srcs[i], dsts[i] = mv.From, mv.To
		}
		s.srcs, s.dsts = sortedUnique(srcs), sortedUnique(dsts)
		s.srcDsts = make([][]int, len(s.srcs))
		for _, mv := range moves {
			i := position(s.srcs, mv.From)
			s.srcDsts[i] = append(s.srcDsts[i], mv.To)
		}
		for i, dsts := range s.srcDsts {
			s.srcDsts[i] = sortedUnique(dsts)
		}
		s.triggered = make([]bool, len(s.srcs))
		return s
	}
	if len(m.plan.Moves) == 0 {
		return nil
	}
	if !m.Opt.Subscale {
		return []*subscale{mk(0, m.plan.Moves)}
	}
	byPair := make(map[[2]int][]dataflow.Move)
	var pairs [][2]int
	for _, mv := range m.plan.Moves {
		key := [2]int{mv.From, mv.To}
		if byPair[key] == nil {
			pairs = append(pairs, key)
		}
		byPair[key] = append(byPair[key], mv)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var out []*subscale
	id := 0
	for _, key := range pairs {
		moves := byPair[key]
		// Equal-sized chunks bounded by SubscaleKGs.
		n := (len(moves) + m.Opt.SubscaleKGs - 1) / m.Opt.SubscaleKGs
		if n == 0 {
			n = 1
		}
		per := (len(moves) + n - 1) / n
		for len(moves) > 0 {
			k := per
			if k > len(moves) {
				k = len(moves)
			}
			out = append(out, mk(id, moves[:k]))
			id++
			moves = moves[k:]
		}
	}
	return out
}

// sortedUnique sorts xs and drops repeats, in place.
func sortedUnique(xs []int) []int {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// scheduleNext implements the greedy subscale scheduler: prioritize
// subscales migrating to instances holding the fewest keys (activating new
// instances fastest), subject to the per-node concurrency threshold.
func (m *Mechanism) scheduleNext() {
	for {
		for _, s := range m.pending {
			s.held = m.heldKeys(s)
		}
		slices.SortStableFunc(m.pending, byHeldKeys)
		launched := false
		for i, s := range m.pending {
			if !m.nodeSlotsFree(s) {
				continue
			}
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.reserveNodes(s, +1)
			m.launch(s)
			launched = true
			break
		}
		if !launched {
			return
		}
	}
}

// heldKeys scores a subscale by the key groups its destinations already
// hold.
func (m *Mechanism) heldKeys(s *subscale) int {
	sum := 0
	for _, dst := range s.dsts {
		sum += m.rt.Instance(m.op, dst).Store().Len()
	}
	return sum
}

// byHeldKeys orders subscales by their held score, fewest first.
func byHeldKeys(a, b *subscale) int { return cmp.Compare(a.held, b.held) }

// nodeOf names the node hosting instance idx of the scaled operator.
func (m *Mechanism) nodeOf(idx int) string {
	return m.rt.Cluster.NodeOf(netsim.Endpoint{Op: m.op, Index: idx}).Name
}

// subscaleNodes lists the distinct nodes hosting a subscale's sources and
// destinations, in first-seen order.
func (m *Mechanism) subscaleNodes(s *subscale) []string {
	seen := map[string]bool{}
	var out []string
	for _, idx := range append(append([]int(nil), s.srcs...), s.dsts...) {
		n := m.nodeOf(idx)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// nodeSlotsFree reports whether every node of the subscale is under the
// per-node concurrency threshold. A node hosting several of its instances is
// checked once per instance, which answers the same.
func (m *Mechanism) nodeSlotsFree(s *subscale) bool {
	for _, idxs := range [2][]int{s.srcs, s.dsts} {
		for _, idx := range idxs {
			if m.activeNode[m.nodeOf(idx)] >= m.Opt.NodeConcurrency {
				return false
			}
		}
	}
	return true
}

func (m *Mechanism) reserveNodes(s *subscale, delta int) {
	for _, n := range m.subscaleNodes(s) {
		m.activeNode[n] += delta
	}
}

// launch injects one subscale's decoupled signals at every predecessor.
func (m *Mechanism) launch(s *subscale) {
	m.active++
	if m.active > m.MaxActive {
		m.MaxActive = m.active
	}
	m.rt.Scale.SignalInjected(s.signal, m.rt.Sched.Now())
	m.rt.Sched.After(engine.ControlLatency, func() {
		for _, p := range m.preds {
			m.inject(p, s)
		}
	})
}

// inject performs the predecessor-side protocol for one subscale: routing
// update, output-cache redirection (records bypassed by the confirm barrier
// move to the new channel in order), then trigger + confirm emission —
// integrating with an in-flight checkpoint barrier per Fig 9a if one sits in
// the output cache.
func (m *Mechanism) inject(p *engine.Instance, s *subscale) {
	tbl := p.Routing(m.op)
	for _, mv := range s.moves {
		tbl.SetOwner(mv.KeyGroup, mv.To)
	}
	isCkpt := func(msg netsim.Message) bool {
		return msg.MsgKind() == netsim.KindCheckpointBarrier
	}
	for _, src := range s.srcs {
		src := src
		edgeOld := p.OutEdges(m.op)[src]
		// Redirect output-cache records of this subscale's key groups
		// (stopping at a checkpoint barrier: Fig 9a says redirection
		// concludes there).
		take := func(msg netsim.Message) bool {
			r, ok := msg.(*netsim.Record)
			if !ok {
				return false
			}
			mv, st := m.entry(r.KeyGroup)
			return st != nil && st.sub == s && mv.From == src
		}
		for _, rec := range edgeOld.ExtractOutbox(take, isCkpt) {
			r := rec.(*netsim.Record)
			mv, _ := m.entry(r.KeyGroup)
			p.OutEdges(m.op)[mv.To].ForceSend(r)
		}
		// The blocked-emission queue is the tail of the output cache.
		for _, dst := range s.dstsOf(src) {
			dst := dst
			p.RedirectPending(edgeOld, p.OutEdges(m.op)[dst], func(r *netsim.Record) bool {
				mv, st := m.entry(r.KeyGroup)
				return st != nil && st.sub == s && mv.To == dst
			})
		}
		trig := &netsim.TriggerBarrier{ScaleID: m.scaleID, Subscale: s.id, FromOp: p.Spec.Name, FromIdx: p.Index}
		conf := &netsim.ConfirmBarrier{ScaleID: m.scaleID, Subscale: s.id, FromOp: p.Spec.Name, FromIdx: p.Index}
		if at := edgeOld.FindOutbox(isCkpt); at >= 0 {
			// Fig 9a: the checkpoint barrier becomes an integrated signal —
			// checkpoint, then trigger, then confirm.
			m.rt.Scale.AddCounter("drrs_ckpt_integrated_outbox", 1)
			edgeOld.InsertOutboxAt(at+1, trig)
			edgeOld.InsertOutboxAt(at+2, conf)
		} else {
			edgeOld.SendPriority(conf)
			edgeOld.SendPriority(trig) // ends up ahead of the confirm
		}
	}
}

// observe keeps the coordinator's table in step with the Migrator. A failed
// transfer leaves its group Reverted: back at its source with routing
// reverted, surrendered to a superseding recovery plan (PlanFromPlacement
// sees it where it actually is), and records already routed toward the dead
// destination are dropped by the keyed-state backstop and counted lost.
func (m *Mechanism) observe(kg int, p scaling.MovePhase) {
	mv, st := m.entry(kg)
	st.phase = p
	switch p {
	case scaling.Extracted:
		// Queued records for kg now re-route instead of waiting.
		m.rt.Instance(m.op, mv.From).Wake()
	case scaling.Landed, scaling.Reverted:
		st.sub.chunksLeft--
		m.checkSubscale(st.sub)
	}
}

func (m *Mechanism) checkSubscale(s *subscale) {
	if s.completed || s.chunksLeft > 0 || s.confirmsLeft > 0 {
		return
	}
	s.completed = true
	m.active--
	m.reserveNodes(s, -1)
	m.scheduleNext()
	m.tracked.Pay(1)
}

// maybeCleanup tears the scaling machinery down once the re-route paths have
// drained, returning the runtime to its non-scaling configuration (the
// paper: no DRRS components remain in runtime memory after scaling).
func (m *Mechanism) maybeCleanup() {
	if m.cleaned || !m.finished {
		return
	}
	//lint:allow maporder QueuedTotal is a pure read; the loop computes an any-nonempty predicate, which no iteration order can change
	for _, e := range m.rerouteEdges {
		if e.QueuedTotal() > 0 {
			return
		}
	}
	m.cleaned = true
	// Detach in sorted (src, dst) order: map iteration would vary the order
	// edges leave each instance's input list between identical runs, and the
	// controller path polls instances right through cleanup.
	keys := make([][2]int, 0, len(m.rerouteEdges))
	for key := range m.rerouteEdges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		m.rt.DetachInput(m.rt.Instance(m.op, key[1]), m.rerouteEdges[key])
	}
	for _, in := range m.rt.Instances(m.op) {
		in.SetHook(nil)
		in.SetHandler(&engine.NativeHandler{})
		in.Wake()
	}
}

// cancel supersedes this scaling operation (the paper's concurrent-request
// rule: a newer request on the same operator terminates the older one).
// Subscales not yet launched are dropped, and the units they owed with them;
// launched ones run to completion so state is never stranded mid-flight. A
// cancel before deployment still finishes no earlier than the deploy: the
// instances are added regardless, and a superseding request must plan
// against them, from the resulting placement.
func (m *Mechanism) cancel() {
	dropped := len(m.pending)
	m.pending = nil
	m.tracked.Pay(dropped)
}
