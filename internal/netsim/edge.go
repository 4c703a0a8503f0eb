package netsim

import (
	"fmt"

	"drrs/internal/simtime"
)

// Endpoint names one operator instance as a channel endpoint.
type Endpoint struct {
	Op    string
	Index int
}

func (e Endpoint) String() string { return fmt.Sprintf("%s[%d]", e.Op, e.Index) }

// Edge is a point-to-point channel between two operator instances.
//
// A message first enters the sender-side outbox (Flink's output cache). The
// link drains the outbox in order the moment the inbox has room, and each
// message arrives exactly Latency after it left the outbox; Latency is fixed
// when the edge is built, so arrivals keep the order of departures. On
// arrival a message joins the receiver-side inbox, except trigger barriers,
// which jump to the inbox front (priority arrival).
//
// Storage: the three queues are adjacent regions of one power-of-two ring,
// delimited by four cursors that only grow (PushFrontInbox excepted),
// head <= inEnd <= linkEnd <= tail:
//
//	[head, inEnd)     inbox, oldest first
//	[inEnd, linkEnd)  on the link, in departure order
//	[linkEnd, tail)   outbox, next to transmit first
//
// A slot is cursor & (len(ring)-1). A message is written once (at tail, by
// a send) and read once (at head, by PopInbox): departure and arrival only
// move a cursor. The rare DRRS operations that reorder a queue — priority
// sends and inserts into the outbox, priority arrivals and positional
// removal in the inbox, outbox extraction — shift messages within that one
// region. A full ring doubles and re-bases the cursors at zero.
//
// Backpressure: TrySend refuses records when the outbox is at capacity, and
// the link stalls when the inbox (including in-flight messages) is full.
//
// Who wakes whom: the edge wakes its receiver once per delivery event, as
// the event's last act, after every arrival due at that instant is in the
// inbox and the next delivery is armed. It wakes its sender only on demand.
// A refused TrySend registers the sender as waiting; the next time outbox
// space frees (the link took a message, or ExtractOutbox removed some) the
// edge schedules exactly one SetSenderWake callback at the current instant
// and forgets the registration. A sender that was never refused costs no
// wake events, and a sender refused again after its wake re-registers by
// that refusal. The callback is a hint that TrySend may now succeed, not a
// reservation: the sender must retry, and whoever makes a sender stop
// retrying for another reason (halted, busy) owns waking it when that reason
// ends.
type Edge struct {
	sched *simtime.Scheduler

	Src, Dst Endpoint
	// Created is when the edge was wired; checkpoint alignment only expects
	// barriers on channels that existed when the checkpoint was triggered.
	Created simtime.Time
	// Auxiliary marks out-of-band channels (DRRS re-route paths) that never
	// carry checkpoint barriers.
	Auxiliary bool
	Latency   simtime.Duration
	OutCap    int // records; <= 0 means unbounded
	InCap     int // records; <= 0 means unbounded

	// ring holds inbox, link and outbox back to back (see the type comment);
	// its length is zero or a power of two. at is a parallel lane holding
	// the arrival instant of each slot on the link; the other slots' entries
	// are stale. Both are allocated on the first send.
	ring []Message
	at   []simtime.Time
	// head, inEnd, linkEnd and tail are the region cursors.
	head, inEnd, linkEnd, tail int

	// slot and ready tie the edge to its receiver's input list: slot is the
	// edge's position there (-1 while unbound) and ready is the receiver's
	// set of channels with a non-empty inbox, which the edge keeps current
	// wherever its inbox changes.
	slot  int
	ready *SlotSet

	// Arrival instants on the link are nondecreasing (a FIFO link admits no
	// overtaking), so a single outstanding timer at the link front's instant
	// drains the whole link — one scheduled event per busy period instead of
	// one per message.
	timerArmed bool
	deliverFn  func()

	onArrival  func(*Edge)
	onOutSpace func()
	// senderWaiting is set by a refused TrySend and consumed by wakeSender:
	// outbox space that frees while nobody was refused wakes nobody.
	senderWaiting bool

	// Delivered counts messages that reached the inbox, for tests and debug.
	Delivered uint64
	// DeliveredBytes counts payload bytes that reached the inbox.
	DeliveredBytes uint64
}

// EdgeConfig bundles the link parameters for NewEdge.
type EdgeConfig struct {
	Latency simtime.Duration
	OutCap  int
	InCap   int
}

// NewEdge builds an edge between src and dst on the given scheduler.
func NewEdge(s *simtime.Scheduler, src, dst Endpoint, cfg EdgeConfig) *Edge {
	e := &Edge{
		sched:   s,
		Src:     src,
		Dst:     dst,
		Created: s.Now(),
		Latency: cfg.Latency,
		OutCap:  cfg.OutCap,
		InCap:   cfg.InCap,
		slot:    -1,
	}
	// Prebound so the hot path never allocates a closure.
	e.deliverFn = e.deliver
	return e
}

// SetReceiver installs the arrival callback (the receiving instance's wake),
// called once per delivery event with every newly arrived message already in
// the inbox.
func (e *Edge) SetReceiver(fn func(*Edge)) { e.onArrival = fn }

// BindInput makes the edge input channel number slot of a receiver whose
// non-empty-inbox set is ready (already grown to hold slot), and brings the
// edge's bit up to date. Rebinding with a new slot renumbers the channel.
func (e *Edge) BindInput(ready *SlotSet, slot int) {
	e.ready, e.slot = ready, slot
	ready.Assign(slot, e.inEnd > e.head)
}

// UnbindInput detaches the edge from its receiver's input list. The caller
// owns the vacated bit.
func (e *Edge) UnbindInput() { e.ready, e.slot = nil, -1 }

// Slot reports the edge's position in its receiver's input list, -1 while
// unbound.
func (e *Edge) Slot() int { return e.slot }

// inboxFilled / inboxDrained keep the receiver's ready set in step with the
// inbox after a push / a removal.
func (e *Edge) inboxFilled() {
	if e.ready != nil {
		e.ready.Set(e.slot)
	}
}

func (e *Edge) inboxDrained() {
	if e.ready != nil && e.inEnd == e.head {
		e.ready.Clear(e.slot)
	}
}

// SetSenderWake installs the callback fired (asynchronously, once per
// refusal episode) when outbox space frees after a TrySend was refused, so a
// blocked sender can resume emitting.
func (e *Edge) SetSenderWake(fn func()) { e.onOutSpace = fn }

// mask turns a cursor into a ring index.
func (e *Edge) mask() int { return len(e.ring) - 1 }

// reserve makes room for one more message: a full ring doubles, copying
// every region in order to a new ring whose head is slot zero.
func (e *Edge) reserve() {
	n := e.tail - e.head
	if n < len(e.ring) {
		return
	}
	size := 2 * len(e.ring)
	if size < 8 {
		size = 8
	}
	ring := make([]Message, size)
	at := make([]simtime.Time, size)
	m := e.mask()
	for i := 0; i < n; i++ {
		ring[i] = e.ring[(e.head+i)&m]
		at[i] = e.at[(e.head+i)&m]
	}
	e.ring, e.at = ring, at
	e.inEnd -= e.head
	e.linkEnd -= e.head
	e.tail -= e.head
	e.head = 0
}

// shiftUp moves the messages at cursors [from, to) one slot up, vacating
// from. The caller has reserved the slot at to.
func (e *Edge) shiftUp(from, to int) {
	m := e.mask()
	for i := to; i > from; i-- {
		e.ring[i&m] = e.ring[(i-1)&m]
	}
}

// pushBack appends m to the outbox.
func (e *Edge) pushBack(m Message) {
	e.reserve()
	e.ring[e.tail&e.mask()] = m
	e.tail++
}

// TrySend enqueues m into the outbox. It refuses data records (including
// rerouted ones) when the outbox is full — that is backpressure — but always
// accepts control messages, whose loss or blockage would deadlock the
// protocol. Reports whether the message was accepted; a refusal registers the
// sender for one wake when outbox space frees.
func (e *Edge) TrySend(m Message) bool {
	if e.OutCap > 0 && e.tail-e.linkEnd >= e.OutCap && isDataKind(m) {
		e.senderWaiting = true
		return false
	}
	e.pushBack(m)
	e.pump()
	return true
}

// SendPriority pushes m to the front of the outbox, bypassing all queued
// output (the trigger-barrier path, and the confirm barrier's output-cache
// priority).
func (e *Edge) SendPriority(m Message) { e.InsertOutboxAt(0, m) }

// ForceSend appends m to the outbox regardless of capacity. Used for
// redirection: records extracted from another edge's output cache must land
// here without being dropped, even under backpressure.
func (e *Edge) ForceSend(m Message) {
	e.pushBack(m)
	e.pump()
}

func (e *Edge) inboxSpace() bool {
	return e.InCap <= 0 || e.linkEnd-e.head < e.InCap
}

// isDataKind reports whether a message consumes buffer capacity; control
// messages (barriers, watermarks) always flow, so a full input buffer cannot
// stall a priority trigger barrier sitting at the outbox front.
func isDataKind(m Message) bool {
	switch m.MsgKind() {
	case KindRecord, KindRerouted:
		return true
	}
	return false
}

// pump moves messages from the outbox onto the link while the inbox has
// room. Every message departs now and arrives Latency later.
func (e *Edge) pump() {
	start := e.linkEnd
	arrive := e.sched.Now().Add(e.Latency)
	m := e.mask()
	for e.linkEnd < e.tail {
		k := e.linkEnd & m
		if isDataKind(e.ring[k]) && !e.inboxSpace() {
			break
		}
		e.at[k] = arrive
		e.linkEnd++
	}
	if e.linkEnd != start {
		e.armDeliver()
		e.wakeSender()
	}
}

// armDeliver keeps exactly one timer outstanding: the link front's arrival.
// Arrival instants are nondecreasing, so later departures never need to
// re-arm earlier.
func (e *Edge) armDeliver() {
	if e.timerArmed || e.inEnd == e.linkEnd {
		return
	}
	e.timerArmed = true
	e.sched.At(e.at[e.inEnd&e.mask()], e.deliverFn)
}

// wakeSender is called wherever outbox space freed. It schedules the sender's
// wake only if a TrySend has been refused since the last one.
func (e *Edge) wakeSender() {
	if !e.senderWaiting || e.onOutSpace == nil {
		return
	}
	e.senderWaiting = false
	e.sched.After(0, e.onOutSpace)
}

// deliver moves every arrival due at the current instant into the inbox,
// re-arms for the next pending arrival, and only then calls the receiver,
// once for the whole batch: the receiver's wake is the callback's last act,
// which lets it run the receiver's step inline.
func (e *Edge) deliver() {
	e.timerArmed = false
	now := e.sched.Now()
	m := e.mask()
	for e.inEnd < e.linkEnd && e.at[e.inEnd&m] <= now {
		msg := e.ring[e.inEnd&m]
		if msg.MsgKind() == KindTriggerBarrier {
			// Priority arrival: rotate the inbox so the barrier sits at head.
			e.shiftUp(e.head, e.inEnd)
			e.ring[e.head&m] = msg
		}
		e.inEnd++
		e.inboxFilled()
		e.Delivered++
		e.DeliveredBytes += uint64(msg.SizeBytes())
	}
	e.armDeliver()
	if e.onArrival != nil {
		e.onArrival(e)
	}
}

// InboxLen reports the number of arrived, unconsumed messages.
func (e *Edge) InboxLen() int { return e.inEnd - e.head }

// InboxAt peeks at inbox depth i (0 = next to be consumed).
func (e *Edge) InboxAt(i int) Message {
	if i < 0 || i >= e.inEnd-e.head {
		panic("netsim: inbox index out of range")
	}
	return e.ring[(e.head+i)&e.mask()]
}

// PopInbox consumes the inbox head and re-pumps the link.
func (e *Edge) PopInbox() Message {
	if e.inEnd == e.head {
		panic("netsim: PopInbox on empty inbox")
	}
	k := e.head & e.mask()
	msg := e.ring[k]
	e.ring[k] = nil
	e.head++
	e.inboxDrained()
	e.pump()
	return msg
}

// RemoveInboxAt consumes the message at depth i (Intra-channel Scheduling)
// and re-pumps the link.
func (e *Edge) RemoveInboxAt(i int) Message {
	msg := e.InboxAt(i)
	e.shiftUp(e.head, e.head+i)
	e.ring[e.head&e.mask()] = nil
	e.head++
	e.inboxDrained()
	e.pump()
	return msg
}

// PushFrontInbox returns a message to the inbox head (used when a handler
// peeks a message it cannot yet consume).
func (e *Edge) PushFrontInbox(m Message) {
	e.reserve()
	e.head--
	e.ring[e.head&e.mask()] = m
	e.inboxFilled()
}

// OutboxLen reports the number of messages waiting in the output cache.
func (e *Edge) OutboxLen() int { return e.tail - e.linkEnd }

// OutboxAt peeks at outbox depth i (0 = next to transmit).
func (e *Edge) OutboxAt(i int) Message {
	if i < 0 || i >= e.tail-e.linkEnd {
		panic("netsim: outbox index out of range")
	}
	return e.ring[(e.linkEnd+i)&e.mask()]
}

// QueuedTotal reports outbox + in-flight + inbox occupancy.
func (e *Edge) QueuedTotal() int { return e.tail - e.head }

// ExtractOutbox removes every queued message for which take returns true,
// scanning from the front and stopping (exclusively) at the first message for
// which stop returns true. Extracted messages keep their relative order.
// Messages already on the link cannot be extracted — exactly the paper's
// semantics, where in-flight records become Ep records handled by re-routing.
func (e *Edge) ExtractOutbox(take func(Message) bool, stop func(Message) bool) []Message {
	var out []Message
	m := e.mask()
	// Kept messages close the gaps as the scan passes: w is where the next
	// kept one goes, r the message being examined.
	w, r := e.linkEnd, e.linkEnd
	for ; r < e.tail; r++ {
		msg := e.ring[r&m]
		if stop != nil && stop(msg) {
			break
		}
		if take(msg) {
			out = append(out, msg)
			continue
		}
		e.ring[w&m] = msg
		w++
	}
	if len(out) == 0 {
		return nil
	}
	for ; r < e.tail; r, w = r+1, w+1 {
		e.ring[w&m] = e.ring[r&m]
	}
	for ; w < e.tail; w++ {
		e.ring[w&m] = nil
	}
	e.tail -= len(out)
	e.wakeSender()
	return out
}

// InsertOutboxAt places m at outbox depth i (for checkpoint-integrated DRRS
// signals that must sit immediately behind a checkpoint barrier).
func (e *Edge) InsertOutboxAt(i int, m Message) {
	if i < 0 || i > e.tail-e.linkEnd {
		panic("netsim: outbox insert out of range")
	}
	e.reserve()
	e.shiftUp(e.linkEnd+i, e.tail)
	e.ring[(e.linkEnd+i)&e.mask()] = m
	e.tail++
	e.pump()
}

// FindOutbox returns the depth of the first outbox message satisfying pred,
// or -1.
func (e *Edge) FindOutbox(pred func(Message) bool) int {
	for i := 0; i < e.OutboxLen(); i++ {
		if pred(e.OutboxAt(i)) {
			return i
		}
	}
	return -1
}

// FindInbox returns the depth of the first inbox message satisfying pred, or
// -1.
func (e *Edge) FindInbox(pred func(Message) bool) int {
	for i := 0; i < e.InboxLen(); i++ {
		if pred(e.InboxAt(i)) {
			return i
		}
	}
	return -1
}
