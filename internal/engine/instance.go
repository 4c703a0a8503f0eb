package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// ScaleHook is the seam through which a scaling mechanism attaches to an
// instance. A nil hook (or the embedded BaseHook defaults) yields plain
// non-scaling behaviour.
type ScaleHook interface {
	// Processable gates a data record: false means the record must not be
	// processed yet (its state is not local / not yet activated).
	Processable(in *Instance, r *netsim.Record, e *netsim.Edge) bool
	// BeforeRecord intercepts a data record already popped for processing.
	// Return true when the hook consumed it (e.g. re-routed it).
	BeforeRecord(in *Instance, r *netsim.Record, e *netsim.Edge) bool
	// OnScaleMessage handles scaling control messages (trigger/confirm/scale
	// barriers, rerouted messages). Return true when consumed; unconsumed
	// scale barriers get default align-and-forward treatment.
	OnScaleMessage(in *Instance, m netsim.Message, e *netsim.Edge) bool
	// OnCheckpointBarrier intercepts checkpoint barriers (DRRS's Fig 9
	// integration). Return true when fully handled.
	OnCheckpointBarrier(in *Instance, b *netsim.CheckpointBarrier, e *netsim.Edge) bool
}

// BaseHook is a no-op ScaleHook for embedding.
type BaseHook struct{}

// Processable implements ScaleHook.
func (BaseHook) Processable(*Instance, *netsim.Record, *netsim.Edge) bool { return true }

// BeforeRecord implements ScaleHook.
func (BaseHook) BeforeRecord(*Instance, *netsim.Record, *netsim.Edge) bool { return false }

// OnScaleMessage implements ScaleHook.
func (BaseHook) OnScaleMessage(*Instance, netsim.Message, *netsim.Edge) bool { return false }

// OnCheckpointBarrier implements ScaleHook.
func (BaseHook) OnCheckpointBarrier(*Instance, *netsim.CheckpointBarrier, *netsim.Edge) bool {
	return false
}

type pendingEmit struct {
	edge *netsim.Edge
	msg  netsim.Message
}

// outPort is an instance's resolved view of one downstream operator:
// everything Emit needs to route a record there without a lookup.
type outPort struct {
	dataflow.StreamEdge
	// maxKeyGroups is the downstream operator's key-group count (keyed
	// exchange only).
	maxKeyGroups int
	// edges are the channels toward the downstream instances, by index.
	edges []*netsim.Edge
	// routing is this sender's key-group → instance table (keyed only).
	routing *dataflow.RoutingTable
	// rr is the next rebalance target.
	rr int
}

// Instance is one parallel subtask of an operator.
type Instance struct {
	rt    *Runtime
	Spec  *dataflow.OperatorSpec
	Index int
	name  string

	// ins are the input channels in wiring order. A channel's position here
	// is its slot (netsim.Edge.Slot); ready, blocked and wm are indexed by
	// it, and DetachInput renumbers the channels behind the one it removes.
	ins []*netsim.Edge
	// ready holds the slots whose inbox is non-empty (the edges maintain it),
	// blocked the alignment-blocked slots; handlers poll ready &^ blocked.
	ready, blocked netsim.SlotSet
	// wm holds the last watermark seen per slot (wmUnset before the first)
	// and keeps their aligned minimum.
	wm    wmSlots
	curWM simtime.Time

	// ports are the downstream operators in Graph.Outputs order, resolved
	// once at construction; portByOp serves the by-name accessors only.
	ports    []*outPort
	portByOp map[string]*outPort

	store   *state.Store
	logic   dataflow.Logic
	handler InputHandler
	hook    ScaleHook

	busy bool
	// pending holds the emissions an edge refused, in emission order; the
	// queue is pending[pendHead:]. Draining advances pendHead and an emptied
	// queue rewinds to the start of its buffer, so the buffer is kept and
	// the queue is non-empty exactly when pending is.
	pending  []pendingEmit
	pendHead int
	// Halted freezes the instance entirely (Stop-Checkpoint-Restart).
	Halted bool
	// PauseData stops a source from emitting data records while letting
	// control messages through (Stop-Checkpoint-Restart quiesces this way:
	// the checkpoint barrier passes, data stays in the ingest backlog).
	PauseData bool
	// PauseAfterCkpt arms PauseData: the source pauses itself right after
	// emitting the checkpoint barrier with this id.
	PauseAfterCkpt int64

	// aligners holds, per barrier key being aligned, the distinct channels
	// that delivered it, kept in (src, dst) endpoint order. spareSets keeps
	// the buffers of released keys for the next key to reuse.
	aligners  map[AlignKey][]*netsim.Edge
	spareSets [][]*netsim.Edge

	// src is the source-only part of the instance (nil for operators that
	// are not sources).
	src *source

	suspended  bool
	wakeQueued bool
	costRng    *simtime.RNG
	// node caches Cluster.NodeOf for costOf, valid while the cluster's
	// placement epoch equals nodeEpoch (0: nothing cached). The node, not its
	// speed, is cached: stragglers change Node.Speed in place.
	node      *cluster.Node
	nodeEpoch uint64

	// dead marks a crashed instance (its node failed): Halted, state wiped,
	// inputs queueing. See Fail/Revive.
	dead bool

	// Prebound closures and in-progress message state keep the per-record
	// scheduling path free of closure allocations.
	stepFn  func()
	doneFn  func()
	curMsg  netsim.Message
	curEdge *netsim.Edge
	// recycleCandidate is the record being applied; Emit clears it when the
	// same pointer is forwarded downstream, otherwise apply recycles it.
	recycleCandidate *netsim.Record

	// Processed counts data records handled by this instance.
	Processed uint64
	// lost counts data records destroyed at this instance by faults — the
	// per-instance share of the runtime's LostRecords total, which chaos
	// oracles use to localize record-accounting violations.
	lost uint64
}

func (rt *Runtime) newInstance(spec *dataflow.OperatorSpec, idx int) *Instance {
	sidx := strconv.Itoa(idx)
	outs := rt.Graph.Outputs(spec.Name)
	in := &Instance{
		rt:       rt,
		Spec:     spec,
		Index:    idx,
		name:     spec.Name + "[" + sidx + "]",
		ports:    make([]*outPort, len(outs)),
		portByOp: make(map[string]*outPort, len(outs)),
		aligners: make(map[AlignKey][]*netsim.Edge),
		curWM:    -1,
		costRng:  simtime.NewRNG(rt.Cfg.Seed, "cost/"+spec.Name+"/"+sidx),
	}
	for i, se := range outs {
		p := &outPort{StreamEdge: se}
		if se.Exchange == dataflow.ExchangeKeyed {
			p.maxKeyGroups = rt.Graph.Operator(se.To).MaxKeyGroups
		}
		in.ports[i] = p
		in.portByOp[se.To] = p
	}
	maxKG := spec.MaxKeyGroups
	if maxKG == 0 {
		maxKG = 128
	}
	in.store = state.NewStore(maxKG)
	if spec.NewLogic != nil {
		in.logic = spec.NewLogic()
	}
	if spec.Source != nil {
		in.src = &source{
			backlog: netsim.NewDeque(&rt.arrivalSegs),
			side:    netsim.NewDeque(&rt.sideSegs),
		}
	}
	in.handler = &NativeHandler{}
	in.stepFn = in.step
	in.doneFn = in.processDone
	return in
}

// Endpoint identifies this instance as a channel endpoint.
func (in *Instance) Endpoint() netsim.Endpoint {
	return netsim.Endpoint{Op: in.Spec.Name, Index: in.Index}
}

// Name returns "op[idx]".
func (in *Instance) Name() string { return in.name }

// Store exposes the instance's keyed state.
func (in *Instance) Store() *state.Store { return in.store }

// Logic exposes the instance's operator logic (tests inspect sinks this way).
func (in *Instance) Logic() dataflow.Logic { return in.logic }

// Runtime returns the owning runtime.
func (in *Instance) Runtime() *Runtime { return in.rt }

// SetHandler replaces the input handler (DRRS's Scale Input Handler seam).
func (in *Instance) SetHandler(h InputHandler) { in.handler = h }

// Handler returns the current input handler.
func (in *Instance) Handler() InputHandler { return in.handler }

// SetHook installs a scaling hook.
func (in *Instance) SetHook(h ScaleHook) { in.hook = h }

// InEdges returns the instance's input channels in wiring order.
func (in *Instance) InEdges() []*netsim.Edge { return in.ins }

// OutEdges returns the channels toward a downstream operator, indexed by the
// target instance index.
func (in *Instance) OutEdges(op string) []*netsim.Edge {
	if p := in.portByOp[op]; p != nil {
		return p.edges
	}
	return nil
}

// Routing returns this instance's routing table toward a keyed downstream
// operator.
func (in *Instance) Routing(op string) *dataflow.RoutingTable {
	if p := in.portByOp[op]; p != nil {
		return p.routing
	}
	return nil
}

// SetRouting replaces a routing table (used when installing planned tables).
func (in *Instance) SetRouting(op string, rt *dataflow.RoutingTable) {
	p := in.portByOp[op]
	if p == nil {
		panic(fmt.Sprintf("engine: SetRouting %s→%s: no such output", in.name, op))
	}
	p.routing = rt
}

// addInput appends e to the input list and gives it the next slot.
func (in *Instance) addInput(e *netsim.Edge) {
	slot := len(in.ins)
	in.ins = append(in.ins, e)
	in.wm.add()
	in.ready.Grow(slot + 1)
	in.blocked.Grow(slot + 1)
	e.BindInput(&in.ready, slot)
}

func (in *Instance) addOutput(p *outPort, idx int, e *netsim.Edge) {
	if idx != len(p.edges) {
		panic(fmt.Sprintf("engine: out-of-order wiring %s→%s[%d], have %d", in.name, p.To, idx, len(p.edges)))
	}
	p.edges = append(p.edges, e)
}

// slotOf returns e's slot, or -1 when e is not (or no longer) an input of
// this instance — control messages can outlive the channel they name.
func (in *Instance) slotOf(e *netsim.Edge) int {
	if s := e.Slot(); uint(s) < uint(len(in.ins)) && in.ins[s] == e {
		return s
	}
	return -1
}

// BlockEdge excludes an input channel from the handler (alignment blocking).
func (in *Instance) BlockEdge(e *netsim.Edge) {
	if s := in.slotOf(e); s >= 0 {
		in.blocked.Set(s)
	}
}

// UnblockEdge re-admits a blocked channel and wakes the instance.
func (in *Instance) UnblockEdge(e *netsim.Edge) {
	if s := in.slotOf(e); s >= 0 {
		in.blocked.Clear(s)
	}
	in.Wake()
}

// EdgeBlocked reports whether e is alignment-blocked. A channel that is no
// longer an input is not.
func (in *Instance) EdgeBlocked(e *netsim.Edge) bool {
	s := in.slotOf(e)
	return s >= 0 && in.blocked.Has(s)
}

// NextReady returns the lowest slot in [from, to) whose channel has a queued
// message and is not alignment-blocked, or -1. Input handlers scan with it;
// the channel is InEdges()[slot].
func (in *Instance) NextReady(from, to int) int {
	return in.ready.NextAndNot(in.blocked, from, to)
}

// BacklogLen reports the source backlog size (0 for non-sources).
func (in *Instance) BacklogLen() int {
	if in.src == nil {
		return 0
	}
	return in.src.backlog.Len()
}

// Suspended reports whether the instance is currently suspension-blocked.
func (in *Instance) Suspended() bool { return in.suspended }

// Wake schedules a processing attempt (one step) at the current instant,
// unless the instance could not act on it. Wakes coalesce: any number of calls
// before the next step produce a single step. The indirection through the
// scheduler keeps the engine free of reentrant processing.
//
// Who wakes whom. An input edge wakes its receiver once per delivery event,
// for every arrival due at that instant. An output edge wakes its sender once
// after it refused a TrySend and outbox space freed (netsim.Edge), and never
// otherwise. These two callbacks, the end of processDone and the completions
// of ChargeBusy and the checkpoint snapshot end in wakeTail, which may run
// the step inline. UnblockEdge, Revive, a source's checkpoint barrier and
// RedirectPending (when it moves the head of the blocked-emission queue to
// another edge) wake the instance they change; a scaling hook that makes a
// queued record processable wakes the instance holding it; whoever clears
// Halted or PauseData wakes the instance it released.
//
// While the instance is busy, Wake is a no-op: the step would return without
// looking at anything. That is safe because of one invariant — every
// `busy = false` is followed by Wake. ChargeBusy and the checkpoint-snapshot
// closure call it unconditionally; processDone calls it exactly when a poll
// could find something (a blocked emission to retry, or a queued message on
// an admissible channel), which covers everything a Wake dropped during
// service could have announced.
func (in *Instance) Wake() {
	if in.wakeQueued || in.busy {
		return
	}
	in.wakeQueued = true
	in.rt.Sched.After(0, in.stepFn)
}

// wakeTail is Wake for a scheduler callback whose last act is the wake.
// When nothing else is due at the current instant, the deferred step would
// be the very next event, so it runs inline instead: one event fewer, and
// the (at, seq) order of every other event is unchanged because nothing is
// scheduled between the wake and the end of the callback. Otherwise it is
// Wake.
func (in *Instance) wakeTail() {
	if !in.wakeQueued && !in.busy && in.rt.Sched.NothingDueNow() {
		in.step()
		return
	}
	in.Wake()
}

func (in *Instance) step() {
	in.wakeQueued = false
	if in.src != nil {
		// A source's step is the same gated drain that ingest and
		// EmitWatermark run in place.
		in.drainBacklog()
		return
	}
	if in.Halted || in.busy {
		return
	}
	if len(in.pending) > 0 && !in.drainPending() {
		return // blocked on output; edge wake will retry
	}
	msg, edge, st := in.handler.Next(in)
	switch st {
	case NextOK:
		in.noteSuspend(false)
		in.process(msg, edge)
	case NextSuspended:
		in.noteSuspend(true)
	case NextIdle:
		in.noteSuspend(false)
	}
}

func (in *Instance) noteSuspend(on bool) {
	if on == in.suspended {
		return
	}
	in.suspended = on
	if on {
		in.rt.Scale.SuspendBegin(in.Name(), in.rt.Sched.Now())
	} else {
		in.rt.Scale.SuspendEnd(in.Name(), in.rt.Sched.Now())
	}
}

// CanProcess is the handler-side processability test: control messages and
// latency markers always pass; data records — including rerouted ones, which
// wait in the re-route channel until their state chunk lands — are gated by
// the scaling hook.
func (in *Instance) CanProcess(m netsim.Message, e *netsim.Edge) bool {
	if rr, ok := m.(*netsim.Rerouted); ok {
		if inner, ok := rr.Inner.(*netsim.Record); ok && !inner.Marker && in.hook != nil {
			return in.hook.Processable(in, inner, e)
		}
		return true
	}
	r, ok := m.(*netsim.Record)
	if !ok || r.Marker {
		return true
	}
	if in.hook == nil {
		return true
	}
	return in.hook.Processable(in, r, e)
}

const controlCost = 10 * simtime.Microsecond

func (in *Instance) costOf(m netsim.Message) simtime.Duration {
	switch r := m.(type) {
	case *netsim.Record:
		if r.Marker {
			return 2 * controlCost
		}
		c := in.costRng.Jitter(in.Spec.CostPerRecord, in.Spec.CostJitter)
		speed := in.speed()
		if speed != 1.0 && speed > 0 {
			c = simtime.Duration(float64(c) / speed)
		}
		return c
	case *netsim.Rerouted:
		// A rerouted data record costs what a record costs; wrapped control
		// messages stay cheap.
		if inner, ok := r.Inner.(*netsim.Record); ok && !inner.Marker {
			return in.costOf(inner)
		}
		return controlCost
	default:
		return controlCost
	}
}

// speed is Cluster.SpeedOf(in.Endpoint()) without the per-record placement
// lookups: the node is re-resolved only when the placement epoch moved.
func (in *Instance) speed() float64 {
	if ep := in.rt.Cluster.Epoch(); ep != in.nodeEpoch {
		in.node, in.nodeEpoch = in.rt.Cluster.NodeOf(in.Endpoint()), ep
	}
	return in.node.Speed
}

func (in *Instance) process(m netsim.Message, e *netsim.Edge) {
	in.busy = true
	in.curMsg, in.curEdge = m, e
	in.rt.Sched.After(in.costOf(m), in.doneFn)
}

func (in *Instance) processDone() {
	m, e := in.curMsg, in.curEdge
	in.curMsg, in.curEdge = nil, nil
	in.busy = false
	if in.dead {
		// The instance crashed while this message was mid-service. Data in
		// the jaws of the crash is lost (a real system rewinds to the last
		// checkpoint; the simulator counts the loss instead), but control
		// messages keep their protocol obligations — discarding a barrier or
		// a confirm here would wedge an alignment forever.
		switch msg := m.(type) {
		case *netsim.Record:
			if !msg.Marker {
				in.noteLost(1)
			}
			in.rt.recPool.Put(msg)
		case *netsim.Rerouted:
			if inner, ok := msg.Inner.(*netsim.Record); ok {
				if !inner.Marker {
					in.noteLost(1)
				}
				in.rt.recPool.Put(inner)
			} else {
				in.apply(m, e)
			}
		default:
			in.apply(m, e)
		}
		return
	}
	in.apply(m, e)
	// Poll again only if the poll could find something: blocked emissions to
	// retry or an admissible channel with a queued message. Later arrivals,
	// unblocks and outbox space wake the instance themselves.
	if len(in.pending) > 0 || in.NextReady(0, len(in.ins)) >= 0 {
		in.wakeTail()
	}
}

// noteLost records n data records destroyed by a fault at this instance.
func (in *Instance) noteLost(n uint64) { in.lost += n }

// LostRecords reports how many data records faults destroyed at this
// instance (mid-service at a crash, or stranded after a routing repair).
func (in *Instance) LostRecords() uint64 { return in.lost }

// Fail kills the instance in place (its node crashed): processing freezes,
// keyed state is wiped, and input edges keep queueing — peers back-pressure
// against the corpse instead of observing a vanished endpoint, which is what
// lets in-flight scaling protocols settle deterministically. Returns the
// sorted key groups whose state was lost, for checkpoint-based recovery.
func (in *Instance) Fail() []int {
	in.dead = true
	in.Halted = true
	// Alignment state is volatile: a crashed process forgets which barrier
	// epochs it was collecting, and the in-flight barriers died with it. Keep
	// the input channels admissible, or the revived instance deadlocks
	// waiting on markers that can never arrive (its inboxes fill, upstream
	// backpressures, and the records are neither delivered nor counted lost).
	clear(in.blocked)
	clear(in.aligners)
	lost := make([]int, 0, in.store.Len())
	for kg := range in.store.Groups() {
		lost = append(lost, kg)
	}
	for _, kg := range lost {
		in.store.ExtractGroup(kg)
	}
	return lost
}

// Dead reports whether the instance is currently crashed.
func (in *Instance) Dead() bool { return in.dead }

// Revive returns a crashed instance to service. The caller (the fault
// injector's recovery path) is responsible for re-placing it on a live node
// and re-installing state before calling this.
func (in *Instance) Revive() {
	in.dead = false
	in.Halted = false
	in.Wake()
}

// ChargeBusy occupies the instance for d without processing anything — the
// recovery path uses it to charge checkpoint-replay time (progress since the
// last snapshot is re-earned, not free).
func (in *Instance) ChargeBusy(d simtime.Duration) {
	if d <= 0 {
		in.Wake()
		return
	}
	in.busy = true
	in.rt.Sched.After(d, func() {
		in.busy = false
		in.wakeTail()
	})
}

// apply dispatches one consumed message.
func (in *Instance) apply(m netsim.Message, e *netsim.Edge) {
	switch msg := m.(type) {
	case *netsim.Record:
		if in.hook != nil && in.hook.BeforeRecord(in, msg, e) {
			return
		}
		if msg.Marker {
			in.ForwardMarker(msg)
			return
		}
		in.ApplyRecord(msg)
	case *netsim.Watermark:
		in.onWatermark(msg, e)
	case *netsim.CheckpointBarrier:
		if in.hook != nil && in.hook.OnCheckpointBarrier(in, msg, e) {
			return
		}
		in.onCheckpointBarrier(msg, e)
	default:
		if in.hook != nil && in.hook.OnScaleMessage(in, m, e) {
			return
		}
		if sb, ok := m.(*netsim.ScaleBarrier); ok {
			in.defaultScaleBarrier(sb, e)
		}
		// Other unhandled scale messages are dropped; mechanisms install
		// hooks wherever their messages can arrive.
	}
}

// ApplyRecord runs one data record through the instance's logic with the
// record-recycling bookkeeping: the record dies here — and returns to the
// ingest pool — unless the logic forwards the very same pointer downstream
// (Emit clears the candidate). Scaling hooks use it for rerouted records so
// the migration window recycles like the steady state.
func (in *Instance) ApplyRecord(r *netsim.Record) {
	if in.Spec.KeyedInput && !in.store.HasGroup(r.KeyGroup) {
		// Stranded: the record was routed here before a fault-recovery repair
		// repointed its key group elsewhere. A real system replays it from
		// the rewound checkpoint; the simulator drops it and counts the loss.
		// Unreachable on a healthy run — every mechanism lands state before
		// its records become processable.
		in.noteLost(1)
		in.rt.recPool.Put(r)
		return
	}
	in.Processed++
	if in.logic == nil {
		return
	}
	in.recycleCandidate = r
	in.logic.OnRecord(in, r)
	if in.recycleCandidate == r {
		in.rt.recPool.Put(r)
	}
	in.recycleCandidate = nil
}

// --- OpContext implementation (what operator logic sees) ---

// Emit routes a record to all downstream operators. With multiple outputs the
// record is copied per output stream.
func (in *Instance) Emit(r *netsim.Record) {
	if r == in.recycleCandidate {
		in.recycleCandidate = nil // forwarded: the pointer lives on downstream
	}
	for i, p := range in.ports {
		rec := r
		if i > 0 {
			c := in.rt.recPool.Get()
			*c = *r
			rec = c
		}
		in.routeTo(p, rec)
	}
}

// NewRecord implements dataflow.OpContext: it draws a zeroed record from the
// runtime's recycling pool (the emission-side counterpart of
// SourceContext.NewRecord).
func (in *Instance) NewRecord() *netsim.Record { return in.rt.recPool.Get() }

// State implements dataflow.OpContext.
func (in *Instance) State() *state.Store { return in.store }

func (in *Instance) routeTo(p *outPort, r *netsim.Record) {
	edges := p.edges
	if len(edges) == 0 {
		return
	}
	switch p.Exchange {
	case dataflow.ExchangeKeyed:
		kg := state.KeyGroupOf(r.Key, p.maxKeyGroups)
		r.KeyGroup = kg
		in.send(edges[p.routing.Owner(kg)], r)
	case dataflow.ExchangeRebalance:
		i := p.rr
		p.rr = (i + 1) % len(edges)
		in.send(edges[i], r)
	case dataflow.ExchangeBroadcast:
		for i, e := range edges {
			rec := r
			if i > 0 {
				c := in.rt.recPool.Get()
				*c = *r
				rec = c
			}
			in.send(e, rec)
		}
	}
}

// send enqueues m on e, preserving emission order through the pending queue
// when the edge refuses (backpressure).
func (in *Instance) send(e *netsim.Edge, m netsim.Message) {
	if len(in.pending) > 0 || !e.TrySend(m) {
		in.pending = append(in.pending, pendingEmit{edge: e, msg: m})
	}
}

// drainPending sends queued emissions in order until an edge refuses one,
// reporting whether the queue emptied. The head leaves the queue only once
// its edge took it, so anything sent during TrySend queues behind it. A
// queue left non-empty moves its live part to the front of the buffer once
// the sent part is at least as long, so a queue that never empties does not
// keep what it sent.
func (in *Instance) drainPending() bool {
	for in.pendHead < len(in.pending) {
		pe := in.pending[in.pendHead]
		if !pe.edge.TrySend(pe.msg) {
			if h := in.pendHead; 2*h >= len(in.pending) {
				n := copy(in.pending, in.pending[h:])
				clear(in.pending[n:])
				in.pending, in.pendHead = in.pending[:n], 0
			}
			return false
		}
		in.pending[in.pendHead] = pendingEmit{}
		in.pendHead++
	}
	in.pending, in.pendHead = in.pending[:0], 0
	return true
}

// RedirectPending retargets blocked emissions matching take from one edge to
// another (part of DRRS's output-cache redirection: the pending queue is the
// tail of the output cache). The head of the queue waits on the edge that
// refused it; when the head itself moves, that registration is on the wrong
// edge, so the instance wakes once to retry the head on its new edge.
func (in *Instance) RedirectPending(from, to *netsim.Edge, take func(*netsim.Record) bool) int {
	if len(in.pending) == 0 {
		return 0
	}
	queue := in.pending[in.pendHead:]
	head := queue[0].edge
	var n int
	for i := range queue {
		if queue[i].edge != from {
			continue
		}
		if r, ok := queue[i].msg.(*netsim.Record); ok && take(r) {
			queue[i].edge = to
			n++
		}
	}
	if queue[0].edge != head {
		in.Wake()
	}
	return n
}

// BroadcastControl enqueues a control message to every output edge of every
// downstream operator, preserving order relative to pending records.
func (in *Instance) BroadcastControl(m netsim.Message) {
	for _, p := range in.ports {
		for _, e := range p.edges {
			in.send(e, m)
		}
	}
}

// ForwardMarker passes a latency marker downstream, or records its latency at
// a sink (no outputs); scaling hooks that consume rerouted markers call it
// too.
func (in *Instance) ForwardMarker(r *netsim.Record) {
	if len(in.ports) == 0 {
		in.rt.Latency.Observe(in.rt.Sched.Now(), r.IngestTime)
		// The marker's journey ends at the sink; recycle it.
		in.rt.recPool.Put(r)
		return
	}
	in.Emit(r)
}

// --- Watermarks ---

func (in *Instance) onWatermark(w *netsim.Watermark, e *netsim.Edge) {
	wm := w.WM
	in.rt.wmPool.Put(w)
	if e != nil {
		if s := in.slotOf(e); s >= 0 {
			in.wm.set(s, wm)
		}
	}
	min, ok := in.wm.aligned()
	if ok && min > in.curWM {
		in.curWM = min
		if in.logic != nil {
			in.logic.OnWatermark(in, min)
		}
		in.broadcastWatermark(min)
	}
}

// broadcastWatermark sends one pooled watermark down every output edge,
// held once per edge; a sink has no one to tell.
func (in *Instance) broadcastWatermark(wm simtime.Time) {
	n := 0
	for _, p := range in.ports {
		n += len(p.edges)
	}
	if n > 0 {
		in.BroadcastControl(in.rt.wmPool.Get(wm, n))
	}
}

// SeedWatermark initializes a channel's watermark (used when a scaling
// mechanism wires a new instance so its windows don't stall forever).
func (in *Instance) SeedWatermark(e *netsim.Edge, wm simtime.Time) {
	if s := in.slotOf(e); s >= 0 {
		in.wm.seed(s, wm)
	}
}

// --- Alignment machinery (checkpoints and coupled scale barriers) ---

// AlignKey identifies a barrier being aligned at an instance: Kind names the
// protocol that owns it, so two protocols never share a key, and ID and
// Round number the barrier within it (a checkpoint id, or a scaling
// operation and its round). It is a plain value, so building one allocates
// nothing.
type AlignKey struct {
	Kind  string
	ID    int64
	Round int
}

// AlignOn records that barrier key arrived on e, blocks e, and reports
// whether all current input channels have now delivered it; checkpoints and
// scaling mechanisms align through it. The key's set stays sorted by (src,
// dst) endpoint, so a channel is found by binary search and the set is
// already in release order.
func (in *Instance) AlignOn(key AlignKey, e *netsim.Edge) bool {
	set, ok := in.aligners[key]
	if !ok {
		if n := len(in.spareSets); n > 0 {
			set = in.spareSets[n-1]
			in.spareSets = in.spareSets[:n-1]
		}
	}
	if e != nil {
		i, _ := slices.BinarySearchFunc(set, e, compareEndpoints)
		for i < len(set) && compareEndpoints(set[i], e) == 0 && set[i] != e {
			i++
		}
		if i == len(set) || set[i] != e {
			set = slices.Insert(set, i, e)
		}
		in.BlockEdge(e)
	}
	in.aligners[key] = set
	return len(set) >= len(in.ins)
}

// compareEndpoints orders channels by (src, dst) endpoint.
func compareEndpoints(a, b *netsim.Edge) int {
	if c := cmp.Compare(a.Src.Op, b.Src.Op); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src.Index, b.Src.Index); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst.Op, b.Dst.Op); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst.Index, b.Dst.Index)
}

// ReleaseAlignment unblocks the channels captured under key, in sorted
// (src, dst) endpoint order: unblocking re-arms delivery timers, and any
// order that varied between runs would vary the same-instant FIFO sequence.
func (in *Instance) ReleaseAlignment(key AlignKey) {
	set, ok := in.aligners[key]
	if !ok {
		return
	}
	delete(in.aligners, key)
	for _, e := range set {
		in.UnblockEdge(e)
	}
	clear(set)
	in.spareSets = append(in.spareSets, set[:0])
}

func (in *Instance) onCheckpointBarrier(b *netsim.CheckpointBarrier, e *netsim.Edge) {
	key := AlignKey{Kind: "ckpt", ID: b.ID}
	in.AlignOn(key, e)
	// A checkpoint expects barriers only on the ordinary channels that
	// existed when it was triggered: channels wired mid-scaling (new
	// instances, re-route paths) never carry this barrier.
	started := in.rt.ckptStarted(b.ID)
	expected := 0
	for _, edge := range in.ins {
		if !edge.Auxiliary && edge.Created <= started {
			expected++
		}
	}
	if len(in.aligners[key]) < expected {
		return
	}
	// Aligned: snapshot, forward, unblock.
	snapCost := simtime.Duration(float64(in.store.TotalBytes()) / snapshotBytesPerSec * float64(simtime.Second))
	in.busy = true
	in.rt.Sched.After(snapCost, func() {
		in.busy = false
		in.BroadcastControl(&netsim.CheckpointBarrier{ID: b.ID})
		in.ReleaseAlignment(key)
		in.rt.ackCheckpoint(b.ID, in.Name())
		// Replay any integrated DRRS signals behind the barrier (Fig 9a).
		for _, im := range b.Integrated {
			if in.hook != nil {
				in.hook.OnScaleMessage(in, im, e)
			}
		}
		in.wakeTail()
	})
}

// defaultScaleBarrier is the non-participating-operator behaviour for coupled
// scaling signals: align, then forward (no state action).
func (in *Instance) defaultScaleBarrier(b *netsim.ScaleBarrier, e *netsim.Edge) {
	key := AlignKey{Kind: "scale", ID: b.ScaleID, Round: b.Round}
	if !in.AlignOn(key, e) {
		return
	}
	in.BroadcastControl(b)
	in.ReleaseAlignment(key)
}

// --- Source machinery ---

type sourceContext struct{ in *Instance }

func (c sourceContext) Now() simtime.Time { return c.in.rt.Sched.Now() }
func (c sourceContext) After(d simtime.Duration, fn func()) {
	c.in.rt.Sched.After(d, fn)
}
func (c sourceContext) Ingest(r *netsim.Record) { c.in.ingest(r) }
func (c sourceContext) NewRecord() *netsim.Record {
	return c.in.rt.recPool.Get()
}
func (c sourceContext) EmitWatermark(wm simtime.Time) {
	c.in.src.backlog.PushBack(arrival{at: wm, meta: uint32(arrWatermark)})
	c.in.drainBacklog()
}
func (c sourceContext) InstanceIndex() int { return c.in.Index }
func (c sourceContext) Parallelism() int   { return c.in.Spec.Parallelism }

func (in *Instance) startSource() {
	in.Spec.Source(sourceContext{in: in})
}

// source is what only a source instance keeps: its ingest backlog, the
// records Kafka holds that the consumer has not polled yet. An arrival waits
// there by value, so a queued record costs one 32-byte entry and no pooled
// Record; so does a watermark. A record's Aux, a record whose fields do not
// fit an entry, and each other control message (a checkpoint barrier) wait
// in order in side; an entry's kind says when to take from it.
// Every source of a run grows both deques from the runtime's shared segment
// chains.
type source struct {
	backlog netsim.Deque[arrival]
	side    netsim.Deque[any]
}

// arrival is one backlog entry: a record's fields by value, a watermark
// (kind arrWatermark, its time in at), or the place of a message waiting in
// source.side (kind arrControl: a control message; kind arrRecord: a whole
// record). For a record, at is its ingest time and also its event time, as
// every source stamps both with the ingest instant; a marker's event time
// is 0. meta packs size<<8 | kind. A record whose event time, Seq or Size
// the entry cannot carry waits whole in the side lane instead.
// KeyGroup is not kept: routing sets it as the record leaves.
type arrival struct {
	key   uint64
	at    simtime.Time
	value float64
	seq   uint32
	meta  uint32
}

// arrivalKind flags what an arrival is and what waits for it in the side
// lane.
type arrivalKind uint8

const (
	arrMarker    arrivalKind = 1 << iota // the record is a latency marker
	arrAux                               // the record's Aux waits in the side lane
	arrControl                           // a control message waits in the side lane
	arrWatermark                         // a watermark at time at; nothing waits
	arrRecord                            // the whole record waits in the side lane
)

// maxEntrySize bounds the record sizes an entry's meta carries.
const maxEntrySize = 1 << 24

// kind reads the kind from meta's low byte.
func (a arrival) kind() arrivalKind { return arrivalKind(a.meta) }

// pushRecord queues r and reports whether it kept r itself: a record that
// fits an entry is copied and r is not kept; one that does not waits whole
// in the side lane.
func (s *source) pushRecord(r *netsim.Record) (kept bool) {
	eventTime := r.IngestTime
	kind := arrivalKind(0)
	if r.Marker {
		eventTime, kind = 0, arrMarker
	}
	if r.EventTime != eventTime || r.Seq > math.MaxUint32 || r.Size < 0 || r.Size >= maxEntrySize {
		s.side.PushBack(r)
		s.backlog.PushBack(arrival{meta: uint32(arrRecord)})
		return true
	}
	if r.Aux != nil {
		kind |= arrAux
		s.side.PushBack(r.Aux)
	}
	s.backlog.PushBack(arrival{
		key:   r.Key,
		at:    r.IngestTime,
		value: r.Value,
		seq:   uint32(r.Seq),
		meta:  uint32(r.Size)<<8 | uint32(kind),
	})
	return false
}

// pushControl queues a control message behind every queued arrival.
func (s *source) pushControl(m netsim.Message) {
	s.side.PushBack(m)
	s.backlog.PushBack(arrival{meta: uint32(arrControl)})
}

// ingest stamps r, queues a copy behind the source's backlog, recycles r and
// drains in place.
func (in *Instance) ingest(r *netsim.Record) {
	if r.IngestTime == 0 {
		r.IngestTime = in.rt.Sched.Now()
	}
	if r.Seq == 0 {
		r.Seq = in.rt.NextSeq()
	}
	if !in.src.pushRecord(r) {
		in.rt.recPool.Put(r)
	}
	in.drainBacklog()
}

// drainBacklog emits queued source messages in order, in place, until the
// source is halted or busy, backpressure bites, or data is paused. It is the
// one source drain: step, ingest, EmitWatermark and marker injection call it,
// so no queued record waits for a wake event of its own. A record is drawn
// from the pool only here, as its entry leaves.
func (in *Instance) drainBacklog() {
	if in.Halted || in.busy {
		return
	}
	if len(in.pending) > 0 && !in.drainPending() {
		return // blocked on output; edge wake will retry
	}
	s := in.src
	for s.backlog.Len() > 0 {
		if len(in.pending) > 0 && !in.drainPending() {
			return
		}
		if in.PauseData && s.backlog.At(0).kind()&(arrControl|arrWatermark) == 0 {
			return
		}
		a := s.backlog.PopFront()
		kind := a.kind()
		if kind&arrWatermark != 0 {
			in.broadcastWatermark(a.at)
			continue
		}
		if kind&arrControl != 0 {
			m := s.side.PopFront().(netsim.Message)
			in.BroadcastControl(m)
			if cb, ok := m.(*netsim.CheckpointBarrier); ok && in.PauseAfterCkpt != 0 && cb.ID == in.PauseAfterCkpt {
				in.PauseData = true
				in.PauseAfterCkpt = 0
			}
			continue
		}
		var r *netsim.Record
		if kind&arrRecord != 0 {
			r = s.side.PopFront().(*netsim.Record)
		} else {
			r = in.rt.recPool.Get()
			r.Key, r.IngestTime, r.Seq = a.key, a.at, uint64(a.seq)
			r.Value, r.Size, r.Marker = a.value, int(a.meta>>8), kind&arrMarker != 0
			if !r.Marker {
				r.EventTime = a.at
			}
			if kind&arrAux != 0 {
				r.Aux = s.side.PopFront()
			}
		}
		if !r.Marker {
			in.rt.Throughput.Observe(in.rt.Sched.Now(), 1)
		}
		in.Emit(r)
	}
}

// sourceEmitBarrier injects a checkpoint barrier at a source: the source
// snapshots immediately (offsets are trivial) and the barrier joins the
// stream behind already-emitted records. Unlike ingest it wakes rather than
// draining in place: callers of TriggerCheckpoint (Stop-Checkpoint-Restart)
// arm PauseAfterCkpt with the returned id after it returns, so an in-place
// drain would emit the barrier before the pause is armed and change the run.
func (in *Instance) sourceEmitBarrier(b *netsim.CheckpointBarrier) {
	in.src.pushControl(b)
	in.rt.ackCheckpoint(b.ID, in.Name())
	in.Wake()
}
