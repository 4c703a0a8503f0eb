package netsim

import (
	"testing"

	"drrs/internal/simtime"
)

// benchEdge wires an edge whose receiver drains the inbox immediately —
// the engine's steady-state pattern with a fast consumer.
func benchEdge(caps int) (*simtime.Scheduler, *Edge) {
	s := simtime.NewScheduler()
	e := NewEdge(s, Endpoint{Op: "a"}, Endpoint{Op: "b"}, EdgeConfig{
		Latency: simtime.Ms(0.5),
		OutCap:  caps,
		InCap:   caps,
	})
	e.SetReceiver(func(e *Edge) {
		for e.InboxLen() > 0 {
			e.PopInbox()
		}
	})
	return s, e
}

// BenchmarkEdgePump measures the per-message cost of the coalesced delivery
// path: send → (single-timer) link → inbox → consume → recycle, the engine's
// actual steady-state loop.
func BenchmarkEdgePump(b *testing.B) {
	s, e := benchEdge(128)
	var pool RecordPool
	e.SetReceiver(func(e *Edge) {
		for e.InboxLen() > 0 {
			if r, ok := e.PopInbox().(*Record); ok {
				pool.Put(r)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pool.Get()
		r.Key = uint64(i)
		r.Size = 64
		if !e.TrySend(r) {
			s.Run() // drain backpressure, then retry
			e.TrySend(r)
		}
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
	if e.Delivered == 0 {
		b.Fatal("nothing delivered")
	}
	b.ReportMetric(float64(e.Delivered), "delivered")
}

// BenchmarkEdgeBackpressureCycle measures one full backpressure episode on a
// saturated edge — refused TrySend, receiver pop, link pump, the sender's
// demand-driven wake, resend — which is the only path that still schedules a
// sender wake.
func BenchmarkEdgeBackpressureCycle(b *testing.B) {
	s := simtime.NewScheduler()
	e := NewEdge(s, Endpoint{Op: "a"}, Endpoint{Op: "b"}, EdgeConfig{
		Latency: simtime.Ms(0.5),
		OutCap:  4,
		InCap:   4,
	})
	var pool RecordPool
	var held *Record // the refused record, resent by the wake
	var woken int
	e.SetSenderWake(func() {
		woken++
		if !e.TrySend(held) {
			b.Fatal("resend refused right after the wake")
		}
		held = nil
	})
	for e.TrySend(pool.Get()) { // saturate: link and outbox full
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		held = pool.Get()
		if e.TrySend(held) {
			b.Fatal("saturated edge accepted a record")
		}
		pool.Put(e.PopInbox().(*Record))
		s.Run() // the wake resends held; the link delivers one more
	}
	if woken != b.N {
		b.Fatalf("%d wakes for %d refusals", woken, b.N)
	}
}

// TestEdgePumpSteadyStateAllocs is the CI guard for the coalesced delivery
// path: once deques, the arrival queue, and the scheduler pool are warm,
// pushing a pooled record through the edge must not allocate.
func TestEdgePumpSteadyStateAllocs(t *testing.T) {
	s, e := benchEdge(128)
	var pool RecordPool
	recycle := func(m Message) {
		if r, ok := m.(*Record); ok {
			pool.Put(r)
		}
	}
	e.SetReceiver(func(e *Edge) {
		for e.InboxLen() > 0 {
			recycle(e.PopInbox())
		}
	})
	// Warm everything.
	for i := 0; i < 512; i++ {
		e.TrySend(pool.Get())
		if i%32 == 31 {
			s.Run()
		}
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			r := pool.Get()
			r.Size = 64
			e.TrySend(r)
		}
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("edge steady state allocates %.2f objects per batch, want 0", avg)
	}
}

// TestEdgeCoalescedDeliveryTiming pins that coalescing did not change
// arrival *times*: messages sent while earlier ones are still on the link,
// and one sent after the link drained, each arrive exactly Latency after
// their send, as the per-message implementation delivered them.
func TestEdgeCoalescedDeliveryTiming(t *testing.T) {
	s := simtime.NewScheduler()
	e := NewEdge(s, Endpoint{Op: "a"}, Endpoint{Op: "b"}, EdgeConfig{Latency: simtime.Ms(1)})
	var arrivals []simtime.Time
	e.SetReceiver(func(e *Edge) {
		for e.InboxLen() > 0 {
			e.PopInbox()
			arrivals = append(arrivals, s.Now())
		}
	})
	for _, at := range []simtime.Time{0, 500, 500, 2000} {
		s.At(at, func() { e.TrySend(&Record{Size: 64}) })
	}
	s.Run()
	want := []simtime.Time{1000, 1500, 1500, 3000}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals %v", arrivals)
	}
	for i, w := range want {
		if arrivals[i] != w {
			t.Fatalf("arrival %d at %v, want %v (got %v)", i, arrivals[i], w, arrivals)
		}
	}
	if e.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", e.InFlight())
	}
}

// TestRecordPoolRecycle pins the pool contract: Put zeroes, Get reuses.
func TestRecordPoolRecycle(t *testing.T) {
	var p RecordPool
	r := p.Get()
	r.Key = 42
	r.Aux = "payload"
	p.Put(r)
	if p.Len() != 1 {
		t.Fatalf("pool len %d", p.Len())
	}
	r2 := p.Get()
	if r2 != r {
		t.Fatal("pool did not recycle the record")
	}
	if r2.Key != 0 || r2.Aux != nil || r2.Value != 0 {
		t.Fatalf("recycled record not zeroed: %+v", r2)
	}
	p.Put(nil) // must not panic
}

// TestRecordPoolChainAndAllocs: the free list threads through the pooled
// records, so records come back last in, first out, each with Aux cleared,
// the pool stops at poolCap, and neither a warm Put/Get cycle nor filling an
// empty pool allocates.
func TestRecordPoolChainAndAllocs(t *testing.T) {
	var p RecordPool
	rs := []*Record{{Key: 1}, {Key: 2, Aux: "tag"}, {Key: 3}}
	for _, r := range rs {
		p.Put(r)
	}
	for i := len(rs) - 1; i >= 0; i-- {
		if r := p.Get(); r != rs[i] || r.Aux != nil || r.Key != 0 {
			t.Fatalf("Get %d: %p %+v, want %p zeroed", len(rs)-1-i, r, r, rs[i])
		}
	}
	if p.Len() != 0 || p.head != nil {
		t.Fatalf("drained pool holds %d records", p.Len())
	}
	for i := 0; i < poolCap+1; i++ {
		p.Put(&Record{})
	}
	if p.Len() != poolCap {
		t.Fatalf("pool holds %d records, want the cap %d", p.Len(), poolCap)
	}
	var sink []*Record
	cycle := func() {
		sink = sink[:0]
		for i := 0; i < 8; i++ {
			sink = append(sink, p.Get())
		}
		for _, r := range sink {
			p.Put(r)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a warm Put/Get cycle allocates %.2f objects, want 0", avg)
	}
	loose := []*Record{{}, {}, {}, {}, {}, {}, {}, {}}
	fill := func() {
		var q RecordPool
		for _, r := range loose {
			q.Put(r)
		}
		for range loose {
			q.Get()
		}
	}
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Fatalf("filling an empty pool allocates %.2f objects, want 0", avg)
	}
}
