package netsim

import (
	"testing"

	"drrs/internal/simtime"
)

// TestSenderNeverRefusedCostsNoEvents pins the quiet half of the wake
// contract: a sender whose TrySend always succeeds is never woken, and the
// only scheduler events the edge causes are its deliveries.
func TestSenderNeverRefusedCostsNoEvents(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{OutCap: 4, InCap: 4, Latency: simtime.Ms(1)})
	var woken, deliveries int
	e.SetSenderWake(func() { woken++ })
	e.SetReceiver(func(e *Edge) {
		deliveries++
		e.PopInbox()
	})
	const n = 100
	for i := 0; i < n; i++ {
		if !e.TrySend(rec(uint64(i), 64)) {
			t.Fatalf("send %d refused with an idle link", i)
		}
		s.RunUntil(s.Now().Add(simtime.Ms(2))) // one message per busy period
	}
	if deliveries != n {
		t.Fatalf("delivered %d of %d", deliveries, n)
	}
	if woken != 0 {
		t.Fatalf("sender woken %d times without ever being refused", woken)
	}
	if got := s.Processed(); got != n {
		t.Fatalf("%d scheduler events for %d deliveries: the edge scheduled something besides deliveries", got, n)
	}
}

// TestRefusedSenderWokenOncePerRefusal pins the other half: a refusal buys
// exactly one wake when space frees, further frees buy none, and a second
// refusal re-arms it.
func TestRefusedSenderWokenOncePerRefusal(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{OutCap: 2, InCap: 1, Latency: simtime.Ms(1)})
	var woken int
	e.SetSenderWake(func() { woken++ })
	// One on the link, two in the outbox, the fourth refused.
	for i := uint64(1); i <= 3; i++ {
		if !e.TrySend(rec(i, 64)) {
			t.Fatalf("send %d refused", i)
		}
	}
	if e.TrySend(rec(4, 64)) {
		t.Fatal("fourth send should hit outbox capacity")
	}
	s.Run()
	if woken != 0 {
		t.Fatalf("woken %d times before any space freed", woken)
	}
	// Each pop lets the link take one outbox message: space frees twice, but
	// the single refusal is answered once.
	e.PopInbox()
	before := s.Processed()
	s.Run()
	if woken != 1 {
		t.Fatalf("woken %d times after space freed, want 1", woken)
	}
	if got := s.Processed() - before; got != 2 {
		t.Fatalf("%d events after the pop, want 2 (one delivery, one wake)", got)
	}
	e.PopInbox()
	s.Run()
	if woken != 1 {
		t.Fatalf("woken %d times; a free with nobody refused must wake nobody", woken)
	}
	// Refill and get refused again: the next free wakes again.
	if !e.TrySend(rec(5, 64)) || !e.TrySend(rec(6, 64)) {
		t.Fatal("outbox should have room for two")
	}
	if e.TrySend(rec(7, 64)) {
		t.Fatal("seventh send should be refused")
	}
	e.PopInbox()
	s.Run()
	if woken != 2 {
		t.Fatalf("woken %d times after the second refusal, want 2", woken)
	}
}

// TestExtractOutboxWakesOnlyARefusedSender: redirection frees outbox space
// too, under the same rule.
func TestExtractOutboxWakesOnlyARefusedSender(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{OutCap: 2, InCap: 1, Latency: simtime.Ms(1)})
	var woken int
	e.SetSenderWake(func() { woken++ })
	all := func(Message) bool { return true }
	for i := uint64(1); i <= 3; i++ {
		e.TrySend(rec(i, 64))
	}
	if got := e.ExtractOutbox(all, nil); len(got) != 2 {
		t.Fatalf("extracted %d", len(got))
	}
	s.Run()
	if woken != 0 {
		t.Fatalf("extraction woke a sender that was never refused (%d)", woken)
	}
	e.TrySend(rec(4, 64))
	e.TrySend(rec(5, 64))
	if e.TrySend(rec(6, 64)) {
		t.Fatal("send into a full outbox should be refused")
	}
	e.ExtractOutbox(all, nil)
	s.Run()
	if woken != 1 {
		t.Fatalf("woken %d times after extraction freed a refused sender, want 1", woken)
	}
}
