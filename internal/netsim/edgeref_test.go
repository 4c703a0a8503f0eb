package netsim

import (
	"drrs/internal/simtime"
)

// refEdge is the reference model FuzzEdgeOps checks Edge against: the same
// channel kept as three separate queues — outbox, link and inbox — each
// message copied from one to the next as it departs and arrives, with every
// reordering done by plain slice insertion and removal. It mirrors Edge's
// exported behaviour, wake contract included, and shares none of its code.
type refEdge struct {
	sched         *simtime.Scheduler
	latency       simtime.Duration
	outCap, inCap int

	outbox, inbox []Message
	link          []refArrival

	slot  int
	ready *SlotSet

	timerArmed    bool
	onArrival     func(*refEdge)
	onOutSpace    func()
	senderWaiting bool

	delivered, deliveredBytes uint64
}

// refArrival is one message on the link and its arrival instant.
type refArrival struct {
	msg Message
	at  simtime.Time
}

func newRefEdge(s *simtime.Scheduler, cfg EdgeConfig) *refEdge {
	return &refEdge{sched: s, latency: cfg.Latency, outCap: cfg.OutCap, inCap: cfg.InCap, slot: -1}
}

func insertAt[T any](q []T, i int, v T) []T {
	var zero T
	q = append(q, zero)
	copy(q[i+1:], q[i:])
	q[i] = v
	return q
}

func removeAt[T any](q []T, i int) ([]T, T) {
	v := q[i]
	return append(q[:i], q[i+1:]...), v
}

func (e *refEdge) bindInput(ready *SlotSet, slot int) {
	e.ready, e.slot = ready, slot
	ready.Assign(slot, len(e.inbox) > 0)
}

func (e *refEdge) inboxFilled() {
	if e.ready != nil {
		e.ready.Set(e.slot)
	}
}

func (e *refEdge) inboxDrained() {
	if e.ready != nil && len(e.inbox) == 0 {
		e.ready.Clear(e.slot)
	}
}

func (e *refEdge) trySend(m Message) bool {
	if e.outCap > 0 && len(e.outbox) >= e.outCap && isDataKind(m) {
		e.senderWaiting = true
		return false
	}
	e.outbox = append(e.outbox, m)
	e.pump()
	return true
}

func (e *refEdge) sendPriority(m Message) {
	e.outbox = insertAt(e.outbox, 0, m)
	e.pump()
}

func (e *refEdge) forceSend(m Message) {
	e.outbox = append(e.outbox, m)
	e.pump()
}

func (e *refEdge) inboxSpace() bool {
	return e.inCap <= 0 || len(e.inbox)+len(e.link) < e.inCap
}

func (e *refEdge) pump() {
	freed := false
	arrive := e.sched.Now().Add(e.latency)
	for len(e.outbox) > 0 {
		if isDataKind(e.outbox[0]) && !e.inboxSpace() {
			break
		}
		var m Message
		e.outbox, m = removeAt(e.outbox, 0)
		freed = true
		e.link = append(e.link, refArrival{msg: m, at: arrive})
	}
	if freed {
		e.armDeliver()
		e.wakeSender()
	}
}

func (e *refEdge) armDeliver() {
	if e.timerArmed || len(e.link) == 0 {
		return
	}
	e.timerArmed = true
	e.sched.At(e.link[0].at, e.deliver)
}

func (e *refEdge) wakeSender() {
	if !e.senderWaiting || e.onOutSpace == nil {
		return
	}
	e.senderWaiting = false
	e.sched.After(0, e.onOutSpace)
}

func (e *refEdge) deliver() {
	e.timerArmed = false
	now := e.sched.Now()
	for len(e.link) > 0 && e.link[0].at <= now {
		var a refArrival
		e.link, a = removeAt(e.link, 0)
		if a.msg.MsgKind() == KindTriggerBarrier {
			e.inbox = insertAt(e.inbox, 0, a.msg)
		} else {
			e.inbox = append(e.inbox, a.msg)
		}
		e.inboxFilled()
		e.delivered++
		e.deliveredBytes += uint64(a.msg.SizeBytes())
	}
	e.armDeliver()
	if e.onArrival != nil {
		e.onArrival(e)
	}
}

func (e *refEdge) removeInboxAt(i int) Message {
	var m Message
	e.inbox, m = removeAt(e.inbox, i)
	e.inboxDrained()
	e.pump()
	return m
}

func (e *refEdge) pushFrontInbox(m Message) {
	e.inbox = insertAt(e.inbox, 0, m)
	e.inboxFilled()
}

func (e *refEdge) extractOutbox(take, stop func(Message) bool) []Message {
	var out []Message
	for i := 0; i < len(e.outbox); {
		m := e.outbox[i]
		if stop != nil && stop(m) {
			break
		}
		if take(m) {
			e.outbox, m = removeAt(e.outbox, i)
			out = append(out, m)
			continue
		}
		i++
	}
	if len(out) > 0 {
		e.wakeSender()
	}
	return out
}

func (e *refEdge) insertOutboxAt(i int, m Message) {
	e.outbox = insertAt(e.outbox, i, m)
	e.pump()
}
