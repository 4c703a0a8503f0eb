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
// The three Options flags correspond to the paper's Fig 14 ablation: the
// full system enables all three; each variant keeps exactly one. Variants
// without DR fall back to coupled-barrier synchronization (the generalized
// OTFS framework), with Subscale Division degrading to Naive Division —
// concurrently launched coupled rounds whose alignments interfere (Fig 7a).
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

// Options selects which DRRS mechanisms are active.
type Options struct {
	// DR enables Decoupling and Re-routing: trigger/confirm barriers with
	// predecessor injection, output-cache redirection, and Ep-record
	// re-routing. Without it, synchronization uses coupled barriers.
	DR bool
	// Schedule enables Record Scheduling (inter- and intra-channel).
	Schedule bool
	// Subscale enables Subscale Division.
	Subscale bool

	// SubscaleKGs is the target key groups per subscale (default 8).
	SubscaleKGs int
	// NodeConcurrency caps concurrent subscales touching one node
	// (default 2, the paper's threshold).
	NodeConcurrency int
	// BufferDepth bounds the intra-channel scan (default 200, the paper's
	// pre-serialized record buffer).
	BufferDepth int
}

// FullDRRS returns the complete system's options.
func FullDRRS() Options {
	return Options{DR: true, Schedule: true, Subscale: true}
}

// Variant returns options for Fig 14's ablation variants: "drrs", "dr",
// "schedule", or "subscale".
func Variant(name string) Options {
	switch name {
	case "drrs":
		return FullDRRS()
	case "dr":
		return Options{DR: true}
	case "schedule":
		return Options{Schedule: true}
	case "subscale":
		return Options{Subscale: true}
	default:
		panic(fmt.Sprintf("core: unknown variant %q", name))
	}
}

func (o *Options) fillDefaults() {
	if o.SubscaleKGs <= 0 {
		o.SubscaleKGs = 8
	}
	if o.NodeConcurrency <= 0 {
		o.NodeConcurrency = 2
	}
	if o.BufferDepth <= 0 {
		o.BufferDepth = 200
	}
}

// subscale is one independently migrating subset of the scaling operation.
type subscale struct {
	id     int
	signal string
	moves  []dataflow.Move // ascending key group, like plan.Moves
	srcs   []int           // unique source instances, ascending
	dsts   []int           // unique destination instances, ascending

	triggered map[int]bool // src → migration started
	// confirmSeen marks rerouted confirm consumption per
	// (dst, src, predOp, predIdx) — the per-channel "fluid confirmation".
	confirmSeen map[confirmKey]bool
	// confirmsLeftAt counts outstanding confirms per destination (implicit
	// alignment without Record Scheduling).
	confirmsLeftAt map[int]int
	confirmsLeft   int
	chunksLeft     int
	completed      bool
	launched       bool
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

func (s *subscale) dstsOf(src int) []int {
	seen := map[int]bool{}
	var out []int
	for _, mv := range s.moves {
		if mv.From == src && !seen[mv.To] {
			seen[mv.To] = true
			out = append(out, mv.To)
		}
	}
	sort.Ints(out)
	return out
}

// kgPhase is where one planned key group stands in the DR migration.
type kgPhase uint8

const (
	// planned: the group's state is still at its source.
	planned kgPhase = iota
	// extracted: the state left its source; records for the group re-route.
	extracted
	// landed: the state is installed at its destination.
	landed
	// reverted: the transfer failed (destination died mid-flight), the
	// state is back at its source with routing reverted, and the group is
	// left for a superseding recovery plan to move.
	reverted
)

// kgStatus is one planned key group's entry in the coordinator's table.
type kgStatus struct {
	sub   *subscale
	phase kgPhase
}

// confirmKey names one rerouted confirm channel: destination, source, and
// the predecessor instance whose confirm it carries.
type confirmKey struct {
	dst, src int
	predOp   string
	predIdx  int
}

// Mechanism is the DRRS scale coordinator.
type Mechanism struct {
	Opt Options

	rt      *engine.Runtime
	plan    scaling.Plan
	op      string
	scaleID int64
	tracked *scaling.Tracked

	// subs is indexed by subscale id.
	subs    []*subscale
	pending []*subscale
	// kgs holds each planned key group's subscale and phase, by the
	// group's move position in plan.Moves; nLanded counts landed entries.
	kgs     []kgStatus
	nLanded int

	rerouteEdges  map[[2]int]*netsim.Edge
	edgeIsReroute map[*netsim.Edge]bool
	reroutesInto  map[int][]*netsim.Edge

	preds      []*engine.Instance
	activeNode map[string]int
	active     int
	// MaxActive records the peak number of concurrently running subscales
	// (observable evidence for the scheduler's concurrency threshold).
	MaxActive int
	deployed  bool
	finished  bool
	cleaned   bool
	cancelled bool
}

// New returns a DRRS mechanism with the given options.
func New(opt Options) *Mechanism {
	opt.fillDefaults()
	return &Mechanism{Opt: opt}
}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string {
	switch {
	case m.Opt.DR && m.Opt.Schedule && m.Opt.Subscale:
		return "drrs"
	case m.Opt.DR:
		return "drrs-dr"
	case m.Opt.Schedule:
		return "drrs-schedule"
	case m.Opt.Subscale:
		return "drrs-subscale"
	default:
		return "drrs-none"
	}
}

// operation is the lifecycle handle over the DRRS coordinator: the
// coordinator reports its phases to the embedded Tracked, and Cancel is
// honored — subscales not yet launched are dropped and the operation settles
// early (the paper's concurrent-execution rule).
type operation struct {
	*scaling.Tracked
	m *Mechanism
}

func (o operation) Cancel() bool {
	o.Tracked.Cancel()
	o.m.cancel()
	return true
}

// Begin implements scaling.Mechanism. The DR coordinator reports its own
// phases and honors cancellation; the coupled ablation variants (no DR)
// return the coupled controller's handle, since the coupled barrier protocol
// has no cancellation path.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) scaling.Operation {
	if !m.Opt.DR {
		return m.beginCoupled(rt, plan, done)
	}
	m.scaleID = rt.NextScaleID()
	m.rt = rt
	m.plan = plan
	m.op = plan.Operator
	m.tracked = scaling.NewTracked(plan, done)
	m.kgs = make([]kgStatus, len(plan.Moves))
	m.rerouteEdges = make(map[[2]int]*netsim.Edge)
	m.edgeIsReroute = make(map[*netsim.Edge]bool)
	m.reroutesInto = make(map[int][]*netsim.Edge)
	m.activeNode = make(map[string]int)
	m.subs = m.divide()
	m.pending = append([]*subscale(nil), m.subs...)
	for _, s := range m.subs {
		for _, mv := range s.moves {
			_, st := m.entry(mv.KeyGroup)
			st.sub = s
			rt.Scale.UnitAssigned(mv.KeyGroup, s.signal)
		}
	}

	scaling.Deploy(rt, plan, func(added []*engine.Instance) {
		m.deployed = true
		m.tracked.Deployed()
		m.preds = rt.PredecessorInstances(m.op)
		// Count expected confirms: one per (pred, src, dst) triple.
		for _, s := range m.subs {
			s.confirmsLeftAt = make(map[int]int)
			for _, src := range s.srcs {
				for _, dst := range s.dstsOf(src) {
					s.confirmsLeftAt[dst] += len(m.preds)
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
	})
	return operation{m.tracked, m}
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
// Subscale Division the whole plan forms a single subscale.
func (m *Mechanism) divide() []*subscale {
	mk := func(id int, moves []dataflow.Move) *subscale {
		s := &subscale{
			id:          id,
			signal:      fmt.Sprintf("drrs:%d:sub%d", m.scaleID, id),
			moves:       moves,
			triggered:   make(map[int]bool),
			confirmSeen: make(map[confirmKey]bool),
		}
		srcs := map[int]bool{}
		dsts := map[int]bool{}
		for _, mv := range moves {
			srcs[mv.From] = true
			dsts[mv.To] = true
		}
		for src := range srcs {
			s.srcs = append(s.srcs, src)
		}
		for dst := range dsts {
			s.dsts = append(s.dsts, dst)
		}
		sort.Ints(s.srcs)
		sort.Ints(s.dsts)
		return s
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

// scheduleNext implements the greedy subscale scheduler: prioritize
// subscales migrating to instances holding the fewest keys (activating new
// instances fastest), subject to the per-node concurrency threshold.
func (m *Mechanism) scheduleNext() {
	if m.cancelled {
		m.maybeFinish()
		return
	}
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
	s.launched = true
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

// startMigration runs one source's fluid migration chain for a subscale.
func (m *Mechanism) startMigration(s *subscale, src int) {
	kgs := s.kgsFrom(src)
	from := m.rt.Instance(m.op, src)
	var step func(i int)
	step = func(i int) {
		if i >= len(kgs) {
			return
		}
		kg := kgs[i]
		mv, st := m.entry(kg)
		to := m.rt.Instance(m.op, mv.To)
		g := from.Store().ExtractGroup(kg)
		st.phase = extracted
		m.rt.Scale.FirstMigration(s.signal, m.rt.Sched.Now())
		from.Wake() // queued records for kg now re-route instead of waiting
		bytes := 0
		if g != nil {
			bytes = g.Bytes
		}
		m.rt.Cluster.TransferChecked(from.Endpoint(), to.Endpoint(), bytes, func() {
			m.rt.Sched.After(scaling.InstallCost, func() {
				to.Store().InstallGroup(kg, g)
				st.phase = landed
				m.nLanded++
				m.tracked.SetMoved(m.nLanded)
				m.rt.Scale.UnitMigrated(kg, m.rt.Sched.Now())
				s.chunksLeft--
				to.Wake()
				m.checkSubscale(s)
				step(i + 1)
			})
		}, func(error) {
			// Destination unreachable: the chunk returns to its source, the
			// predecessors' routing reverts, and the group is surrendered to a
			// superseding recovery plan (PlanFromPlacement sees it where it
			// actually is). Records already routed toward the dead destination
			// are dropped by the keyed-state backstop and counted lost.
			m.rt.Scale.AddCounter("drrs_reverts", 1)
			from.Store().OwnGroup(kg)
			from.Store().InstallGroup(kg, g)
			st.phase = reverted
			for _, p := range m.preds {
				p.Routing(m.op).SetOwner(kg, src)
			}
			s.chunksLeft--
			from.Wake()
			// Rerouted records for kg may already be parked at the live
			// destination, suspension-blocked on the chunk that will now never
			// arrive — and the rerouted confirm queued behind them. The revert
			// made them processable; a suspended destination never re-evaluates
			// without a wake, so without one the confirm never drains and the
			// operation wedges. Only a suspended instance needs it: waking
			// unconditionally would insert a scheduler event into runs that
			// were never stuck.
			if to.Suspended() && !to.Dead() {
				to.Wake()
			}
			m.checkSubscale(s)
			step(i + 1)
		})
	}
	step(0)
}

func (m *Mechanism) checkSubscale(s *subscale) {
	if s.completed || s.chunksLeft > 0 || s.confirmsLeft > 0 {
		return
	}
	s.completed = true
	m.active--
	m.reserveNodes(s, -1)
	m.scheduleNext()
	m.maybeFinish()
}

func (m *Mechanism) maybeFinish() {
	if m.finished {
		m.maybeCleanup()
		return
	}
	if !m.deployed {
		// A cancellation before deployment completes cannot settle yet: the
		// physical deployment is already in flight (scaling.Deploy's timer
		// will add the instances regardless), so reporting done here would
		// let a superseding operation plan against an instance set that is
		// about to change under it. The deploy callback re-runs the
		// scheduler, which lands back here once the instances exist.
		return
	}
	for _, s := range m.subs {
		if !s.completed && !(m.cancelled && !s.launched) {
			return
		}
	}
	m.finished = true
	m.rt.Scale.MarkScaleEnd(m.rt.Sched.Now())
	m.tracked.Finish()
	m.maybeCleanup()
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
// Subscales not yet launched are dropped; launched ones run to completion so
// state is never stranded mid-flight. The superseding request must plan from
// the resulting placement.
func (m *Mechanism) cancel() {
	if m.cancelled {
		return
	}
	m.cancelled = true
	m.pending = nil
	m.maybeFinish()
}

// beginCoupled runs the non-DR ablation variants on the coupled-barrier
// controller: Schedule-only is a single coupled round plus Record
// Scheduling; Subscale-only is Naive Division — concurrently launched
// coupled rounds that interfere through alignment blocking.
func (m *Mechanism) beginCoupled(rt *engine.Runtime, plan scaling.Plan, done func()) scaling.Operation {
	rounds := scaling.BatchRounds(plan, 0)
	if m.Opt.Subscale {
		rounds = scaling.BatchRounds(plan, m.Opt.SubscaleKGs)
	}
	c := scaling.NewCoupledController(plan, rounds)
	c.Fluid = true
	c.InjectAtSources = false
	c.Concurrent = m.Opt.Subscale
	if m.Opt.Schedule {
		depth := m.Opt.BufferDepth
		c.Scheduling = func() engine.InputHandler { return &SchedulingHandler{Depth: depth} }
	}
	return c.Begin(rt, done)
}
