package netsim

import (
	"fmt"
	"testing"

	"drrs/internal/simtime"
)

// FuzzEdgeOps decodes bytes into a sequence of edge operations, applies each
// to an Edge and to refEdge, the three-queue reference model, on separate
// schedulers, and after every operation requires the two to agree on inbox,
// link and outbox contents (messages by identity), every arrival instant
// on the link, Delivered and DeliveredBytes, the receiver's ready bit, the
// scheduler's clock and pending count, and the log of receiver and sender
// wakes.
//
// The first three bytes pick InCap and OutCap in 1..4 — small, so the ring
// wraps and grows from its 8-slot start — the link latency, and whether the
// receiver consumes its inbox head on each wake. Then one opcode byte per
// operation, arguments following:
//
//	0  TrySend of a record (refused when the outbox is full)
//	1  TrySend of a control message: watermark, checkpoint, trigger or
//	   confirm barrier
//	2  SendPriority of a trigger barrier
//	3  SendPriority of a confirm barrier
//	4  ForceSend of a record or a rerouted record
//	5  InsertOutboxAt any depth
//	6  ExtractOutbox of the records whose key matches a residue
//	7  ExtractOutbox likewise, stopping at the first checkpoint barrier
//	8  PopInbox
//	9  RemoveInboxAt any depth
//	10 PushFrontInbox of a record
//	11 RunUntil now plus 0 to 7 µs
func FuzzEdgeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 11, 8, 11, 8, 11})
	f.Add([]byte{1, 3, 2, 0, 0, 0, 11, 1, 2, 11, 1, 11, 5, 11, 2, 11, 9, 1, 11, 9, 0})
	// A trigger barrier arriving behind a non-empty inbox.
	f.Add([]byte{3, 3, 1, 0, 0, 0, 0, 11, 3, 2, 11, 1, 11, 2, 8, 8, 8, 8})
	// Extraction with and without a stop, around a checkpoint barrier.
	f.Add([]byte{0, 3, 3, 0, 0, 0, 1, 1, 0, 0, 0, 6, 1, 7, 0, 7, 2, 11, 7, 11, 7, 8, 11, 8})
	// Growth past 8 slots with a wrapped head: pushes to the front of a full
	// inbox and forced sends past OutCap.
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 0, 11, 0, 8, 8, 10, 10, 10, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 5, 3, 11, 1, 11, 9, 2})
	// Growth while messages are on the link: their arrival instants must
	// move with them.
	f.Add([]byte("771000000001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEdgeOps(t, data)
	})
}

// edgePair drives an Edge and a refEdge in lockstep.
type edgePair struct {
	t            *testing.T
	sa, sb       *simtime.Scheduler
	a            *Edge
	b            *refEdge
	readyA       SlotSet
	readyB       SlotSet
	logA, logB   []string
	nextKey      uint64
	recvConsumes bool
}

const pairSlot = 3

func newEdgePair(t *testing.T, cfg EdgeConfig, recvConsumes bool) *edgePair {
	p := &edgePair{t: t, sa: simtime.NewScheduler(), sb: simtime.NewScheduler(), recvConsumes: recvConsumes}
	p.a = NewEdge(p.sa, Endpoint{Op: "a"}, Endpoint{Op: "b"}, cfg)
	p.b = newRefEdge(p.sb, cfg)
	p.readyA.Grow(pairSlot + 1)
	p.readyB.Grow(pairSlot + 1)
	p.a.BindInput(&p.readyA, pairSlot)
	p.b.bindInput(&p.readyB, pairSlot)
	p.a.SetReceiver(func(e *Edge) {
		p.logA = append(p.logA, fmt.Sprintf("recv@%d inbox %d", p.sa.Now(), e.InboxLen()))
		if p.recvConsumes && e.InboxLen() > 0 {
			e.PopInbox()
		}
	})
	p.b.onArrival = func(e *refEdge) {
		p.logB = append(p.logB, fmt.Sprintf("recv@%d inbox %d", p.sb.Now(), len(e.inbox)))
		if p.recvConsumes && len(e.inbox) > 0 {
			e.removeInboxAt(0)
		}
	}
	p.a.SetSenderWake(func() { p.logA = append(p.logA, fmt.Sprintf("wake@%d", p.sa.Now())) })
	p.b.onOutSpace = func() { p.logB = append(p.logB, fmt.Sprintf("wake@%d", p.sb.Now())) }
	return p
}

func (p *edgePair) record() *Record {
	p.nextKey++
	return &Record{Key: p.nextKey, Size: int(p.nextKey % 100)}
}

// check compares every observable of the two edges.
func (p *edgePair) check(op string) {
	t := p.t
	t.Helper()
	a, b := p.a, p.b
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %s: "+format, append([]any{op}, args...)...)
	}
	if a.InboxLen() != len(b.inbox) || a.InFlight() != len(b.link) || a.OutboxLen() != len(b.outbox) {
		fail("inbox/link/outbox %d/%d/%d, model %d/%d/%d",
			a.InboxLen(), a.InFlight(), a.OutboxLen(), len(b.inbox), len(b.link), len(b.outbox))
	}
	if a.QueuedTotal() != len(b.inbox)+len(b.link)+len(b.outbox) {
		fail("QueuedTotal %d", a.QueuedTotal())
	}
	for i, m := range b.inbox {
		if a.InboxAt(i) != m {
			fail("inbox depth %d holds %v, model %v", i, a.InboxAt(i), m)
		}
	}
	mask := len(a.ring) - 1
	for i, w := range b.link {
		k := (a.inEnd + i) & mask
		if a.ring[k] != w.msg || a.at[k] != w.at {
			fail("link depth %d holds %v due %dµs, model %v due %dµs", i, a.ring[k], a.at[k], w.msg, w.at)
		}
	}
	for i, m := range b.outbox {
		if a.OutboxAt(i) != m {
			fail("outbox depth %d holds %v, model %v", i, a.OutboxAt(i), m)
		}
	}
	if a.Delivered != b.delivered || a.DeliveredBytes != b.deliveredBytes {
		fail("Delivered %d/%d bytes, model %d/%d", a.Delivered, a.DeliveredBytes, b.delivered, b.deliveredBytes)
	}
	if p.readyA.Has(pairSlot) != p.readyB.Has(pairSlot) {
		fail("ready bit %v, model %v", p.readyA.Has(pairSlot), p.readyB.Has(pairSlot))
	}
	if a.timerArmed != b.timerArmed || a.senderWaiting != b.senderWaiting {
		fail("armed/waiting %v/%v, model %v/%v", a.timerArmed, a.senderWaiting, b.timerArmed, b.senderWaiting)
	}
	if p.sa.Now() != p.sb.Now() || p.sa.Pending() != p.sb.Pending() || p.sa.Processed() != p.sb.Processed() {
		fail("scheduler now/pending/processed %v/%d/%d, model %v/%d/%d",
			p.sa.Now(), p.sa.Pending(), p.sa.Processed(), p.sb.Now(), p.sb.Pending(), p.sb.Processed())
	}
	if len(p.logA) != len(p.logB) {
		fail("wake log %q, model %q", p.logA, p.logB)
	}
	for i := range p.logA {
		if p.logA[i] != p.logB[i] {
			fail("wake log %q, model %q", p.logA, p.logB)
		}
	}
	// The ring's slots outside the three regions must hold nothing, so a
	// consumed message is not kept alive.
	for c := a.tail; c < a.head+len(a.ring); c++ {
		if a.ring[c&mask] != nil {
			fail("free slot %d holds %v", c&mask, a.ring[c&mask])
		}
	}
}

func checkEdgeOps(t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	cfg := EdgeConfig{InCap: 1 + next()%4, OutCap: 1 + next()%4}
	hdr := next()
	cfg.Latency = []simtime.Duration{0, 1, 3, 10}[hdr%4]
	p := newEdgePair(t, cfg, hdr&4 != 0)
	a, b := p.a, p.b

	for ops := 0; pos < len(data) && ops < 400; ops++ {
		switch op := next() % 12; op {
		case 0:
			m := p.record()
			if ga, gb := a.TrySend(m), b.trySend(m); ga != gb {
				t.Fatalf("TrySend accepted %v, model %v", ga, gb)
			}
			p.check("TrySend record")
		case 1:
			var m Message
			switch next() % 4 {
			case 0:
				m = &Watermark{WM: simtime.Time(p.nextKey)}
			case 1:
				m = &CheckpointBarrier{ID: int64(p.nextKey)}
			case 2:
				m = &TriggerBarrier{ScaleID: int64(p.nextKey)}
			default:
				m = &ConfirmBarrier{ScaleID: int64(p.nextKey)}
			}
			p.nextKey++
			if ga, gb := a.TrySend(m), b.trySend(m); !ga || !gb {
				t.Fatalf("TrySend refused control %v (%v, model %v)", m.MsgKind(), ga, gb)
			}
			p.check("TrySend control")
		case 2, 3:
			var m Message = &TriggerBarrier{ScaleID: int64(p.nextKey)}
			if op == 3 {
				m = &ConfirmBarrier{ScaleID: int64(p.nextKey)}
			}
			p.nextKey++
			a.SendPriority(m)
			b.sendPriority(m)
			p.check("SendPriority")
		case 4:
			var m Message = p.record()
			if next()%2 == 1 {
				m = &Rerouted{Inner: m}
			}
			a.ForceSend(m)
			b.forceSend(m)
			p.check("ForceSend")
		case 5:
			i := next() % (len(b.outbox) + 1)
			var m Message = p.record()
			if next()%2 == 1 {
				m = &TriggerBarrier{ScaleID: int64(p.nextKey)}
			}
			a.InsertOutboxAt(i, m)
			b.insertOutboxAt(i, m)
			p.check("InsertOutboxAt")
		case 6, 7:
			mod, rem := uint64(1+next()%3), uint64(next()%3)
			take := func(m Message) bool {
				r, ok := m.(*Record)
				return ok && r.Key%mod == rem%mod
			}
			var stop func(Message) bool
			if op == 7 {
				stop = func(m Message) bool { return m.MsgKind() == KindCheckpointBarrier }
			}
			ga, gb := a.ExtractOutbox(take, stop), b.extractOutbox(take, stop)
			if len(ga) != len(gb) {
				t.Fatalf("ExtractOutbox took %d, model %d", len(ga), len(gb))
			}
			for i := range ga {
				if ga[i] != gb[i] {
					t.Fatalf("ExtractOutbox result %d is %v, model %v", i, ga[i], gb[i])
				}
			}
			p.check("ExtractOutbox")
		case 8:
			if len(b.inbox) == 0 {
				continue
			}
			if ga, gb := a.PopInbox(), b.removeInboxAt(0); ga != gb {
				t.Fatalf("PopInbox got %v, model %v", ga, gb)
			}
			p.check("PopInbox")
		case 9:
			if len(b.inbox) == 0 {
				continue
			}
			i := next() % len(b.inbox)
			if ga, gb := a.RemoveInboxAt(i), b.removeInboxAt(i); ga != gb {
				t.Fatalf("RemoveInboxAt(%d) got %v, model %v", i, ga, gb)
			}
			p.check("RemoveInboxAt")
		case 10:
			m := p.record()
			a.PushFrontInbox(m)
			b.pushFrontInbox(m)
			p.check("PushFrontInbox")
		case 11:
			until := p.sa.Now().Add(simtime.Duration(next() % 8))
			p.sa.RunUntil(until)
			p.sb.RunUntil(until)
			p.check("RunUntil")
		}
	}
	p.sa.Run()
	p.sb.Run()
	p.check("Run")
}
