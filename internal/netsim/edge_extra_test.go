package netsim

import (
	"testing"

	"drrs/internal/simtime"
)

func TestForceSendBypassesCapacity(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{OutCap: 1, InCap: 1})
	e.TrySend(rec(1, 64))
	e.TrySend(rec(2, 64))
	if e.TrySend(rec(3, 64)) {
		t.Fatal("TrySend should refuse at capacity")
	}
	e.ForceSend(rec(3, 64))
	// The forced record is queued at the tail, order preserved.
	if e.OutboxLen() == 0 {
		t.Fatal("forced record lost")
	}
	last := e.OutboxAt(e.OutboxLen() - 1).(*Record)
	if last.Key != 3 {
		t.Fatalf("forced record at wrong position: key %d", last.Key)
	}
}

func TestControlFlowsThroughFullInbox(t *testing.T) {
	// The trigger barrier's defining property: a full input buffer cannot
	// stall it, while data behind it waits.
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{InCap: 2, Latency: simtime.Ms(1)})
	e.SetReceiver(func(*Edge) {})
	for i := 0; i < 5; i++ {
		e.TrySend(rec(uint64(i), 64))
	}
	s.Run()
	if e.InboxLen() != 2 {
		t.Fatalf("inbox %d, want 2 (capacity)", e.InboxLen())
	}
	e.SendPriority(&TriggerBarrier{ScaleID: 1})
	s.Run()
	// Trigger arrived despite the full buffer, at the front.
	if e.InboxAt(0).MsgKind() != KindTriggerBarrier {
		t.Fatalf("head is %v, want trigger", e.InboxAt(0).MsgKind())
	}
	// Data is still gated.
	if e.OutboxLen() == 0 {
		t.Fatal("remaining data should still be waiting in the outbox")
	}
}

func TestInsertOutboxAtOrdering(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{InCap: 1, Latency: simtime.Ms(1)})
	e.TrySend(rec(0, 64)) // departs; InCap 1 holds the rest in the outbox
	e.TrySend(rec(1, 64))
	e.TrySend(&CheckpointBarrier{ID: 3})
	e.TrySend(rec(2, 64))
	at := e.FindOutbox(func(m Message) bool { return m.MsgKind() == KindCheckpointBarrier })
	if at < 0 {
		t.Fatal("barrier not found in outbox")
	}
	e.InsertOutboxAt(at+1, &TriggerBarrier{ScaleID: 1})
	e.InsertOutboxAt(at+2, &ConfirmBarrier{ScaleID: 1})
	// Expected order behind the head: rec1, ckpt, trigger, confirm, rec2.
	kinds := make([]Kind, 0, e.OutboxLen())
	for i := 0; i < e.OutboxLen(); i++ {
		kinds = append(kinds, e.OutboxAt(i).MsgKind())
	}
	want := []Kind{KindRecord, KindCheckpointBarrier, KindTriggerBarrier, KindConfirmBarrier, KindRecord}
	if len(kinds) != len(want) {
		t.Fatalf("outbox kinds %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("position %d: %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestEdgeCreatedStamped(t *testing.T) {
	s := simtime.NewScheduler()
	s.After(simtime.Ms(7), func() {
		e := newTestEdge(s, EdgeConfig{})
		if e.Created != simtime.Time(simtime.Ms(7)) {
			t.Errorf("Created %v", e.Created)
		}
	})
	s.Run()
}
