package netsim

import (
	"testing"
	"testing/quick"

	"drrs/internal/simtime"
)

func TestDequeBasics(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100; i++ {
		d.PushBack(i)
	}
	if d.Len() != 100 {
		t.Fatalf("len %d", d.Len())
	}
	for i := 0; i < 100; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("pop %d want %d", got, i)
		}
	}
}

func TestDequeWrapAround(t *testing.T) {
	var d Deque[int]
	// Force the head through many segments.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			d.PushBack(round*7 + i)
		}
		for i := 0; i < 6; i++ {
			d.PopFront()
		}
	}
	// Now verify positional peeks still work across segments: 50 rounds of
	// +7/-6 leave the last 50 values, in order.
	n := d.Len()
	if n != 50 {
		t.Fatalf("len %d after wrapping, want 50", n)
	}
	for i := 0; i < n; i++ {
		if got, want := d.At(i), 300+i; got != want {
			t.Fatalf("wrap At(%d) got %d want %d", i, got, want)
		}
	}
}

func TestDequeDrain(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 5; i++ {
		d.PushBack(i)
	}
	out := d.Drain()
	if len(out) != 5 || d.Len() != 0 || out[4] != 4 {
		t.Fatalf("drain %v", out)
	}
}

func TestDequeRandomOpsProperty(t *testing.T) {
	// Model-based property test: Deque behaves like a reference slice.
	f := func(ops []uint8) bool {
		var d Deque[int]
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d.PushBack(next)
				ref = append(ref, next)
				next++
			case 1:
				if len(ref) > 0 {
					if d.PopFront() != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 2:
				if len(ref) > 0 {
					i := int(op) % len(ref)
					if d.At(i) != ref[i] {
						return false
					}
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		for i, v := range ref {
			if d.At(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func rec(key uint64, size int) *Record {
	return &Record{Key: key, Size: size}
}

func newTestEdge(s *simtime.Scheduler, cfg EdgeConfig) *Edge {
	return NewEdge(s, Endpoint{Op: "a", Index: 0}, Endpoint{Op: "b", Index: 0}, cfg)
}

func TestEdgeDeliveryOrderAndLatency(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{Latency: simtime.Ms(1)})
	// The receiver runs once per delivery batch; nothing is consumed here,
	// so the batch's messages are the inbox's last Delivered-seen entries.
	var (
		arrivals []simtime.Time
		keys     []uint64
		seen     uint64
	)
	e.SetReceiver(func(e *Edge) {
		for i := e.InboxLen() - int(e.Delivered-seen); i < e.InboxLen(); i++ {
			arrivals = append(arrivals, s.Now())
			keys = append(keys, e.InboxAt(i).(*Record).Key)
		}
		seen = e.Delivered
	})
	for i := 0; i < 3; i++ {
		if !e.TrySend(rec(uint64(i), 64)) {
			t.Fatal("send refused")
		}
	}
	s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals %d", len(arrivals))
	}
	for i, at := range arrivals {
		if at != simtime.Time(simtime.Ms(1)) {
			t.Fatalf("infinite-bandwidth messages should pipeline: %v", at)
		}
		if keys[i] != uint64(i) {
			t.Fatalf("arrival order: got key %d at %d", keys[i], i)
		}
	}
	for i := 0; i < 3; i++ {
		r := e.PopInbox().(*Record)
		if r.Key != uint64(i) {
			t.Fatalf("order: got key %d at %d", r.Key, i)
		}
	}
}

func TestEdgeOutboxBackpressure(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{OutCap: 2, InCap: 1, Latency: simtime.Ms(1)})
	// InCap 1: only one message may be in flight or queued at the receiver.
	ok1 := e.TrySend(rec(1, 64))
	ok2 := e.TrySend(rec(2, 64))
	ok3 := e.TrySend(rec(3, 64)) // outbox holds msg2,msg3? msg1 in flight
	ok4 := e.TrySend(rec(4, 64))
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("first three sends should be accepted")
	}
	if ok4 {
		t.Fatal("fourth send should hit outbox capacity")
	}
	var woken int
	e.SetSenderWake(func() { woken++ })
	s.Run()
	// Nothing pops the inbox, so only one delivery happens.
	if e.InboxLen() != 1 {
		t.Fatalf("inbox %d", e.InboxLen())
	}
	e.PopInbox()
	s.Run()
	if e.InboxLen() != 1 {
		t.Fatalf("inbox after pop %d", e.InboxLen())
	}
	if woken == 0 {
		t.Fatal("sender never woken on outbox space")
	}
}

func TestEdgeControlMessagesBypassCapacity(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{OutCap: 1})
	e.TrySend(rec(1, 64))
	e.TrySend(rec(2, 64))
	if !e.TrySend(&Watermark{WM: 5}) {
		t.Fatal("watermark must not be refused")
	}
	if !e.TrySend(&CheckpointBarrier{ID: 1}) {
		t.Fatal("barrier must not be refused")
	}
}

func TestEdgeTriggerBarrierPriorityBothSides(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{Latency: simtime.Ms(1)})
	e.SetReceiver(func(*Edge) {})
	// Records 0 and 1 arrive at 1 ms; records 2-4 leave at 1.5 ms and are
	// still on the link when the trigger is sent at 2 ms.
	for i := 0; i < 2; i++ {
		e.TrySend(rec(uint64(i), 64))
	}
	s.At(simtime.Time(simtime.Ms(1.5)), func() {
		for i := 2; i < 5; i++ {
			e.TrySend(rec(uint64(i), 64))
		}
	})
	s.At(simtime.Time(simtime.Ms(2)), func() {
		if e.InboxLen() != 2 || e.InFlight() != 3 {
			t.Errorf("at 2ms: inbox %d in flight %d, want 2 and 3", e.InboxLen(), e.InFlight())
		}
		e.SendPriority(&TriggerBarrier{ScaleID: 1})
	})
	s.Run()
	// The trigger arrives last but lands in front of every unconsumed record,
	// including those that arrived before it was sent.
	if e.InboxLen() != 6 || e.InboxAt(0).MsgKind() != KindTriggerBarrier {
		t.Fatalf("inbox %d, head %v; want 6 with the trigger first", e.InboxLen(), e.InboxAt(0).MsgKind())
	}
	for i := 1; i < 6; i++ {
		if r := e.InboxAt(i).(*Record); r.Key != uint64(i-1) {
			t.Fatalf("inbox %d holds record %d, want %d", i, r.Key, i-1)
		}
	}
}

func TestEdgeExtractOutbox(t *testing.T) {
	s := simtime.NewScheduler()
	// InCap 1 stalls the link behind the first record, so the outbox retains
	// the rest.
	e := newTestEdge(s, EdgeConfig{InCap: 1, Latency: simtime.Ms(1)})
	for i := 0; i < 6; i++ {
		e.TrySend(rec(uint64(i%3), 64))
	}
	// One message departs; the rest sit in the outbox.
	taken := e.ExtractOutbox(
		func(m Message) bool { r, ok := m.(*Record); return ok && r.Key == 1 },
		nil,
	)
	for _, m := range taken {
		if m.(*Record).Key != 1 {
			t.Fatalf("extracted wrong key %d", m.(*Record).Key)
		}
	}
	if len(taken) == 0 {
		t.Fatal("nothing extracted")
	}
	// Remaining outbox must preserve the relative order of keys 0 and 2.
	var rest []uint64
	for i := 0; i < e.OutboxLen(); i++ {
		if r, ok := e.OutboxAt(i).(*Record); ok {
			rest = append(rest, r.Key)
		}
	}
	for _, k := range rest {
		if k == 1 {
			t.Fatal("key 1 left behind")
		}
	}
}

func TestEdgeExtractOutboxStopsAtBarrier(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{InCap: 1, Latency: simtime.Ms(1)})
	e.TrySend(rec(9, 64)) // departs immediately
	e.TrySend(rec(1, 64))
	e.TrySend(&CheckpointBarrier{ID: 7})
	e.TrySend(rec(1, 64))
	taken := e.ExtractOutbox(
		func(m Message) bool { r, ok := m.(*Record); return ok && r.Key == 1 },
		func(m Message) bool { return m.MsgKind() == KindCheckpointBarrier },
	)
	if len(taken) != 1 {
		t.Fatalf("extraction should stop at checkpoint barrier, took %d", len(taken))
	}
}

func TestEdgeRemoveInboxAt(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{})
	e.SetReceiver(func(*Edge) {})
	for i := 0; i < 4; i++ {
		e.TrySend(rec(uint64(i), 64))
	}
	s.Run()
	m := e.RemoveInboxAt(2).(*Record)
	if m.Key != 2 {
		t.Fatalf("removed key %d", m.Key)
	}
	if e.InboxLen() != 3 {
		t.Fatalf("inbox %d", e.InboxLen())
	}
	if e.InboxAt(2).(*Record).Key != 3 {
		t.Fatal("order broken after RemoveInboxAt")
	}
}

func TestEdgeDeliveredCounters(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{})
	e.SetReceiver(func(*Edge) {})
	e.TrySend(rec(1, 100))
	e.TrySend(rec(2, 50))
	s.Run()
	if e.Delivered != 2 || e.DeliveredBytes != 150 {
		t.Fatalf("counters %d/%d", e.Delivered, e.DeliveredBytes)
	}
}

// TestEdgeFIFOProperty: under random buffer capacities and random send
// and consume schedules, every message arrives exactly Latency after it left
// the outbox, and messages arrive in the order they were accepted.
func TestEdgeFIFOProperty(t *testing.T) {
	f := func(seed int64, inRaw, outRaw, latRaw uint8) bool {
		s := simtime.NewScheduler()
		lat := simtime.Duration(latRaw%5) * simtime.Ms(0.5)
		e := newTestEdge(s, EdgeConfig{
			Latency: lat,
			InCap:   int(inRaw % 6), // 0 = unbounded
			OutCap:  int(outRaw % 6),
		})
		rng := simtime.NewRNG(seed, "netsim/arrival-property")
		var (
			accepted uint64         // keys 0..accepted-1 entered the outbox
			departed []simtime.Time // departure instant of each key that left it
			ok       = true
		)
		// noteDepartures stamps the keys that left the outbox during the
		// action just taken: only sends and pops pump the link.
		noteDepartures := func() {
			for uint64(len(departed)) < accepted-uint64(e.OutboxLen()) {
				departed = append(departed, s.Now())
			}
		}
		// The receiver runs once per delivery batch: the batch's messages
		// are the inbox's last Delivered-seen entries, in arrival order.
		var next, seen uint64
		e.SetReceiver(func(e *Edge) {
			for i := e.InboxLen() - int(e.Delivered-seen); i < e.InboxLen(); i++ {
				r := e.InboxAt(i).(*Record)
				if r.Key != next || r.Key >= uint64(len(departed)) || s.Now() != departed[r.Key].Add(lat) {
					ok = false
				}
				next++
			}
			seen = e.Delivered
		})
		for i := 0; i < 60; i++ {
			at := simtime.Time(rng.Int64N(int64(simtime.Ms(20))))
			if rng.IntN(2) == 0 {
				s.At(at, func() {
					if e.TrySend(rec(accepted, 64)) {
						accepted++
					}
					noteDepartures()
				})
			} else {
				s.At(at, func() {
					if e.InboxLen() > 0 {
						e.PopInbox()
					}
					noteDepartures()
				})
			}
		}
		s.Run()
		for e.InboxLen() > 0 || e.OutboxLen() > 0 {
			if e.InboxLen() > 0 {
				e.PopInbox()
			}
			noteDepartures()
			s.Run()
		}
		return ok && next == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageKindsAndSizes(t *testing.T) {
	msgs := []Message{
		&Record{Size: 10}, &Watermark{}, &CheckpointBarrier{},
		&TriggerBarrier{}, &ConfirmBarrier{}, &ScaleBarrier{},
		&Rerouted{Inner: &Record{Size: 10}},
	}
	kinds := map[Kind]bool{}
	for _, m := range msgs {
		if m.SizeBytes() <= 0 {
			t.Fatalf("%v has non-positive size", m.MsgKind())
		}
		if kinds[m.MsgKind()] {
			t.Fatalf("duplicate kind %v", m.MsgKind())
		}
		kinds[m.MsgKind()] = true
		if m.MsgKind().String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if (&Record{}).SizeBytes() <= 0 {
		t.Fatal("default sizes must be positive")
	}
	if (&Rerouted{Inner: &Record{Size: 10}}).SizeBytes() != 18 {
		t.Fatal("rerouted size should wrap inner")
	}
}

// TestEndpointString prints an endpoint as op[index].
func TestEndpointString(t *testing.T) {
	if got := (Endpoint{Op: "agg", Index: 3}).String(); got != "agg[3]" {
		t.Fatalf("Endpoint.String() = %q, want %q", got, "agg[3]")
	}
}
