package engine

import (
	"fmt"
	"math"
	"sort"
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
	// barriers, rerouted messages, in-band state chunks). Return true when
	// consumed; unconsumed scale barriers get default align-and-forward
	// treatment.
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

// wmUnset marks an input channel that has not delivered a watermark yet. It
// is below every real or seeded watermark (seeds are -1 and 1<<62).
const wmUnset = simtime.Time(math.MinInt64)

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
	// wm is the last watermark seen per slot, wmUnset before the first.
	wm    []simtime.Time
	curWM simtime.Time

	// ports are the downstream operators in Graph.Outputs order, resolved
	// once at construction; portByOp serves the by-name accessors only.
	ports    []*outPort
	portByOp map[string]*outPort

	store   *state.Store
	logic   dataflow.Logic
	handler InputHandler
	hook    ScaleHook

	busy    bool
	pending []pendingEmit
	// Halted freezes the instance entirely (Stop-Checkpoint-Restart).
	Halted bool
	// PauseData stops a source from emitting data records while letting
	// control messages through (Stop-Checkpoint-Restart quiesces this way:
	// the checkpoint barrier passes, data stays in the ingest backlog).
	PauseData bool
	// PauseAfterCkpt arms PauseData: the source pauses itself right after
	// emitting the checkpoint barrier with this id.
	PauseAfterCkpt int64

	aligners map[string]map[*netsim.Edge]bool

	backlog netsim.Deque[netsim.Message]
	srcRng  *simtime.RNG

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
		aligners: make(map[string]map[*netsim.Edge]bool),
		curWM:    -1,
		costRng:  simtime.NewRNG(rt.Cfg.Seed, "cost/"+spec.Name+"/"+sidx),
		srcRng:   simtime.NewRNG(rt.Cfg.Seed, "src/"+spec.Name+"/"+sidx),
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
		if b, ok := in.logic.(dataflow.Binder); ok {
			b.Bind(in)
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
	in.wm = append(in.wm, wmUnset)
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
func (in *Instance) BacklogLen() int { return in.backlog.Len() }

// Suspended reports whether the instance is currently suspension-blocked.
func (in *Instance) Suspended() bool { return in.suspended }

// Wake schedules a processing attempt (one step) at the current instant,
// unless the instance could not act on it. Wakes coalesce: any number of calls
// before the next step produce a single step. The indirection through the
// scheduler keeps the engine free of reentrant processing.
//
// Who wakes whom. An input edge wakes its receiver on every arrival. An
// output edge wakes its sender once after it refused a TrySend and outbox
// space freed (netsim.Edge), and never otherwise. UnblockEdge, Revive, the
// source-side ingest paths and RedirectPending (when it moves the head of the
// blocked-emission queue to another edge) wake the instance they change; a
// scaling hook that makes a queued record processable wakes the instance
// holding it; whoever clears Halted or PauseData wakes the instance it
// released.
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

func (in *Instance) step() {
	in.wakeQueued = false
	if in.Spec.Source != nil {
		// Sources share one gate-and-drain path with dataflow.SourcePump, so
		// timer-driven and batched ingestion can never diverge.
		in.pumpBacklog()
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
	if in.node == nil {
		return 1 // node removed; see Cluster.SpeedOf
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
		in.Wake()
	}
}

// noteLost records n data records destroyed by a fault at this instance,
// keeping the per-instance and runtime-wide tallies in lockstep.
func (in *Instance) noteLost(n uint64) {
	in.lost += n
	in.rt.noteLostRecords(n)
}

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
	lost := in.store.Groups()
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
		in.Wake()
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
			in.forwardMarker(msg)
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

// NewRecord draws a zeroed record from the runtime's recycling pool (the
// emission-side counterpart of SourceContext.NewRecord).
func (in *Instance) NewRecord() *netsim.Record { return in.rt.recPool.Get() }

// Now implements dataflow.OpContext.
func (in *Instance) Now() simtime.Time { return in.rt.Sched.Now() }

// State implements dataflow.OpContext.
func (in *Instance) State() *state.Store { return in.store }

// InstanceIndex implements dataflow.OpContext.
func (in *Instance) InstanceIndex() int { return in.Index }

// CurrentWatermark implements dataflow.OpContext.
func (in *Instance) CurrentWatermark() simtime.Time { return in.curWM }

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

func (in *Instance) drainPending() bool {
	for len(in.pending) > 0 {
		pe := in.pending[0]
		if !pe.edge.TrySend(pe.msg) {
			return false
		}
		in.pending = in.pending[1:]
	}
	return true
}

// PendingEmits reports the blocked-emission queue length.
func (in *Instance) PendingEmits() int { return len(in.pending) }

// RedirectPending retargets blocked emissions matching take from one edge to
// another (part of DRRS's output-cache redirection: the pending queue is the
// tail of the output cache). The head of the queue waits on the edge that
// refused it; when the head itself moves, that registration is on the wrong
// edge, so the instance wakes once to retry the head on its new edge.
func (in *Instance) RedirectPending(from, to *netsim.Edge, take func(*netsim.Record) bool) int {
	if len(in.pending) == 0 {
		return 0
	}
	head := in.pending[0].edge
	var n int
	for i := range in.pending {
		if in.pending[i].edge != from {
			continue
		}
		if r, ok := in.pending[i].msg.(*netsim.Record); ok && take(r) {
			in.pending[i].edge = to
			n++
		}
	}
	if in.pending[0].edge != head {
		in.Wake()
	}
	return n
}

// broadcastControl enqueues a control message to every output edge of every
// downstream operator, preserving order relative to pending records.
func (in *Instance) broadcastControl(m netsim.Message) {
	for _, p := range in.ports {
		for _, e := range p.edges {
			in.send(e, m)
		}
	}
}

// ForwardMarker passes a latency marker downstream, or records its latency at
// a sink; exported for scaling hooks that consume rerouted markers.
func (in *Instance) ForwardMarker(r *netsim.Record) { in.forwardMarker(r) }

// forwardMarker passes a latency marker downstream, or records its latency at
// a sink (no outputs).
func (in *Instance) forwardMarker(r *netsim.Record) {
	if len(in.ports) == 0 {
		in.rt.Latency.Observe(in.rt.Sched.Now(), r.IngestTime)
		if in.rt.OnMarkerSink != nil {
			in.rt.OnMarkerSink(r)
		}
		// The marker's journey ends at the sink; recycle it. OnMarkerSink must
		// not retain the pointer.
		in.rt.recPool.Put(r)
		return
	}
	in.Emit(r)
}

// --- Watermarks ---

func (in *Instance) onWatermark(w *netsim.Watermark, e *netsim.Edge) {
	if e != nil {
		if s := in.slotOf(e); s >= 0 {
			in.wm[s] = w.WM
		}
	}
	min := simtime.Time(-1)
	for _, wm := range in.wm {
		if wm == wmUnset {
			return // some channel has no watermark yet
		}
		if min == -1 || wm < min {
			min = wm
		}
	}
	if min > in.curWM {
		in.curWM = min
		if in.logic != nil {
			in.logic.OnWatermark(in, min)
		}
		in.broadcastControl(&netsim.Watermark{WM: min})
	}
}

// SeedWatermark initializes a channel's watermark (used when a scaling
// mechanism wires a new instance so its windows don't stall forever).
func (in *Instance) SeedWatermark(e *netsim.Edge, wm simtime.Time) {
	if s := in.slotOf(e); s >= 0 && in.wm[s] == wmUnset {
		in.wm[s] = wm
	}
}

// --- Alignment machinery (checkpoints and coupled scale barriers) ---

// AlignOn is the exported alignment primitive for scaling mechanisms: it
// records that the barrier identified by key arrived on e, blocks e, and
// reports whether every current input channel has delivered it.
func (in *Instance) AlignOn(key string, e *netsim.Edge) bool { return in.alignOn(key, e) }

// ReleaseAlignment unblocks the channels captured under key.
func (in *Instance) ReleaseAlignment(key string) { in.releaseAlignment(key) }

// BroadcastControl enqueues a control message on every output edge,
// preserving order relative to pending emissions.
func (in *Instance) BroadcastControl(m netsim.Message) { in.broadcastControl(m) }

// SendControl enqueues a control message toward one downstream instance,
// preserving order relative to pending emissions.
func (in *Instance) SendControl(op string, idx int, m netsim.Message) {
	in.send(in.portByOp[op].edges[idx], m)
}

// alignOn records that barrier key arrived on e, blocks e, and reports
// whether all current input channels have now delivered it.
func (in *Instance) alignOn(key string, e *netsim.Edge) bool {
	set := in.aligners[key]
	if set == nil {
		set = make(map[*netsim.Edge]bool)
		in.aligners[key] = set
	}
	if e != nil {
		set[e] = true
		in.BlockEdge(e)
	}
	return len(set) >= len(in.ins)
}

// releaseAlignment unblocks the channels captured under key, in sorted
// (src, dst) endpoint order: unblocking re-arms delivery timers, and map
// order here would vary the same-instant FIFO sequence between runs.
func (in *Instance) releaseAlignment(key string) {
	edges := make([]*netsim.Edge, 0, len(in.aligners[key]))
	for e := range in.aligners[key] {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Src != b.Src {
			if a.Src.Op != b.Src.Op {
				return a.Src.Op < b.Src.Op
			}
			return a.Src.Index < b.Src.Index
		}
		if a.Dst.Op != b.Dst.Op {
			return a.Dst.Op < b.Dst.Op
		}
		return a.Dst.Index < b.Dst.Index
	})
	for _, e := range edges {
		in.UnblockEdge(e)
	}
	delete(in.aligners, key)
}

func (in *Instance) onCheckpointBarrier(b *netsim.CheckpointBarrier, e *netsim.Edge) {
	key := fmt.Sprintf("ckpt:%d", b.ID)
	in.alignOn(key, e)
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
	snapCost := simtime.Duration(float64(in.store.TotalBytes()) / in.rt.Cfg.SnapshotBytesPerSec * float64(simtime.Second))
	in.busy = true
	in.rt.Sched.After(snapCost, func() {
		in.busy = false
		in.broadcastControl(&netsim.CheckpointBarrier{ID: b.ID})
		in.releaseAlignment(key)
		in.rt.ackCheckpoint(b.ID, in.Name())
		// Replay any integrated DRRS signals behind the barrier (Fig 9a).
		for _, im := range b.Integrated {
			if in.hook != nil {
				in.hook.OnScaleMessage(in, im, e)
			}
		}
		in.Wake()
	})
}

// defaultScaleBarrier is the non-participating-operator behaviour for coupled
// scaling signals: align, then forward (no state action).
func (in *Instance) defaultScaleBarrier(b *netsim.ScaleBarrier, e *netsim.Edge) {
	key := fmt.Sprintf("scale:%d:%d", b.ScaleID, b.Round)
	if !in.alignOn(key, e) {
		return
	}
	in.broadcastControl(&netsim.ScaleBarrier{ScaleID: b.ScaleID, Round: b.Round})
	in.releaseAlignment(key)
}

// --- Source machinery ---

type sourceContext struct{ in *Instance }

func (c sourceContext) Now() simtime.Time { return c.in.rt.Sched.Now() }
func (c sourceContext) After(d simtime.Duration, fn func()) {
	c.in.rt.Sched.After(d, fn)
}
func (c sourceContext) Ingest(r *netsim.Record) { c.in.ingest(r) }

// IngestNow implements dataflow.SourcePump: same stamping and enqueueing as
// Ingest, but the backlog drains synchronously instead of via a wake event.
func (c sourceContext) IngestNow(r *netsim.Record) {
	c.in.enqueueIngest(r)
	c.in.pumpBacklog()
}
func (c sourceContext) NewRecord() *netsim.Record {
	return c.in.rt.recPool.Get()
}
func (c sourceContext) EmitWatermark(wm simtime.Time) {
	c.in.backlog.PushBack(&netsim.Watermark{WM: wm})
	c.in.Wake()
}
func (c sourceContext) InstanceIndex() int { return c.in.Index }
func (c sourceContext) Parallelism() int   { return c.in.Spec.Parallelism }
func (c sourceContext) BacklogLen() int    { return c.in.backlog.Len() }

func (in *Instance) startSource() {
	in.Spec.Source(sourceContext{in: in})
}

func (in *Instance) ingest(r *netsim.Record) {
	in.enqueueIngest(r)
	in.Wake()
}

// enqueueIngest is the shared stamp-and-enqueue half of Ingest/IngestNow;
// the two paths differ only in how the backlog then drains.
func (in *Instance) enqueueIngest(r *netsim.Record) {
	if r.IngestTime == 0 {
		r.IngestTime = in.rt.Sched.Now()
	}
	if r.Seq == 0 {
		r.Seq = in.rt.NextSeq()
	}
	in.backlog.PushBack(r)
}

// pumpBacklog is the synchronous drain behind dataflow.SourcePump: the same
// gates step applies to a source (halted, mid-snapshot, blocked pending
// emissions), then a full backlog drain — without the zero-delay wake event
// a Wake would cost per record.
func (in *Instance) pumpBacklog() {
	if in.Halted || in.busy {
		return
	}
	if len(in.pending) > 0 && !in.drainPending() {
		return // blocked on output; edge wake will retry
	}
	in.drainBacklog()
}

// drainBacklog emits queued source messages until backpressure bites (or the
// source is data-paused).
func (in *Instance) drainBacklog() {
	for in.backlog.Len() > 0 {
		if len(in.pending) > 0 && !in.drainPending() {
			return
		}
		if in.PauseData {
			if _, isRec := in.backlog.At(0).(*netsim.Record); isRec {
				return
			}
		}
		m := in.backlog.PopFront()
		switch msg := m.(type) {
		case *netsim.Record:
			if !msg.Marker {
				in.rt.Throughput.Observe(in.rt.Sched.Now(), 1)
			}
			in.Emit(msg)
		case *netsim.Watermark:
			in.broadcastControl(msg)
		default:
			in.broadcastControl(m)
			if cb, ok := m.(*netsim.CheckpointBarrier); ok && in.PauseAfterCkpt != 0 && cb.ID == in.PauseAfterCkpt {
				in.PauseData = true
				in.PauseAfterCkpt = 0
			}
		}
	}
}

// sourceEmitBarrier injects a checkpoint barrier at a source: the source
// snapshots immediately (offsets are trivial) and the barrier joins the
// stream behind already-emitted records.
func (in *Instance) sourceEmitBarrier(b *netsim.CheckpointBarrier) {
	in.backlog.PushBack(b)
	in.rt.ackCheckpoint(b.ID, in.Name())
	in.Wake()
}
