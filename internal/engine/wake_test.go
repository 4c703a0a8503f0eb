package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// wakeRig builds two idle source instances feeding one costly operator
// instance with no outputs. The tests inject messages on the operator's two
// input channels by hand and count scheduler events; edge latency is 0.5 ms
// and a record costs 1 ms, so a record sent right after another arrives while
// the operator is busy.
func wakeRig(t *testing.T) (*Runtime, *Instance, []*netsim.Edge) {
	t.Helper()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{Name: "src", Parallelism: 2, Source: func(dataflow.SourceContext) {}})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "op", Parallelism: 1, CostPerRecord: simtime.Ms(1),
		NewLogic: func() dataflow.Logic { return NewCollectSink() },
	})
	g.Connect("src", "op", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	op := rt.Instance("op", 0)
	return rt, op, op.InEdges()
}

func sendRecord(t *testing.T, e *netsim.Edge, key uint64) {
	t.Helper()
	if !e.TrySend(&netsim.Record{Key: key, Size: 64}) {
		t.Fatalf("record %d refused", key)
	}
}

// TestArrivalWhileBusySchedulesNothing: a delivery to a busy instance is one
// event (the delivery); the step it would have asked for could do nothing.
func TestArrivalWhileBusySchedulesNothing(t *testing.T) {
	rt, op, ins := wakeRig(t)
	s := rt.Sched
	sendRecord(t, ins[0], 1)
	s.RunUntil(simtime.Time(simtime.Ms(0.5))) // delivered, stepped, now in service
	if !op.busy {
		t.Fatal("operator should be in service")
	}
	sendRecord(t, ins[1], 2) // arrives at 1.0 ms; service ends at 1.5 ms
	before := s.Processed()
	s.RunUntil(simtime.Time(simtime.Ms(1.2)))
	if got := s.Processed() - before; got != 1 {
		t.Fatalf("%d events for an arrival at a busy instance, want 1 (the delivery)", got)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("%d events pending, want only the service completion", got)
	}
	s.Run()
	if op.Processed != 2 {
		t.Fatalf("processed %d, want 2: the record that arrived during service was stranded", op.Processed)
	}
}

// TestDeliveryStepsInlineOnlyWhenNothingElseIsDue: a delivery to an idle
// instance runs its step inline when nothing else is due at that instant, so
// a record costs two events (delivery, completion). An unrelated event due
// at the same instant defers the step behind it, exactly where the deferred
// step always fired.
func TestDeliveryStepsInlineOnlyWhenNothingElseIsDue(t *testing.T) {
	arrive := simtime.Time(simtime.Ms(0.5))
	t.Run("nothing else due: inline", func(t *testing.T) {
		rt, op, ins := wakeRig(t)
		s := rt.Sched
		sendRecord(t, ins[0], 1)
		s.RunUntil(arrive)
		if got := s.Processed(); got != 1 || !op.busy {
			t.Fatalf("%d events, busy %v: want the step to run inside the delivery", got, op.busy)
		}
		s.Run()
		if op.Processed != 1 {
			t.Fatalf("processed %d", op.Processed)
		}
		if got := s.Processed(); got != 2 {
			t.Fatalf("%d events for one record, want 2", got)
		}
	})
	t.Run("unrelated event due: deferred behind it", func(t *testing.T) {
		rt, op, ins := wakeRig(t)
		s := rt.Sched
		sendRecord(t, ins[0], 1)
		busyAtUnrelated := true
		s.At(arrive, func() { busyAtUnrelated = op.busy })
		s.RunUntil(arrive)
		if busyAtUnrelated {
			t.Fatal("the step ran before the unrelated event due at the same instant")
		}
		if got := s.Processed(); got != 3 || !op.busy {
			t.Fatalf("%d events, busy %v: want delivery, unrelated event, then the deferred step", got, op.busy)
		}
		s.Run()
		if got := s.Processed(); got != 4 || op.Processed != 1 {
			t.Fatalf("%d events, processed %d: want 4 and 1", got, op.Processed)
		}
	})
}

// TestProcessDonePollsOnlyWhenWorkIsQueued covers the three outcomes of the
// end-of-service poll decision.
func TestProcessDonePollsOnlyWhenWorkIsQueued(t *testing.T) {
	t.Run("every inbox empty: no step", func(t *testing.T) {
		rt, op, ins := wakeRig(t)
		sendRecord(t, ins[0], 1)
		rt.Sched.Run()
		if op.Processed != 1 {
			t.Fatalf("processed %d", op.Processed)
		}
		// Delivery and service completion — and nothing after it. The step
		// runs inline at the end of the delivery (wakeTail), so it is not an
		// event of its own.
		if got := rt.Sched.Processed(); got != 2 {
			t.Fatalf("%d events for one record, want 2", got)
		}
	})
	t.Run("one admissible inbox non-empty: exactly one step", func(t *testing.T) {
		rt, op, ins := wakeRig(t)
		s := rt.Sched
		sendRecord(t, ins[0], 1)
		sendRecord(t, ins[1], 2)
		s.RunUntil(simtime.Time(simtime.Ms(1.5))) // first service just ended
		if op.Processed != 1 || !op.busy {
			t.Fatalf("processed %d busy %v, want the second record in service", op.Processed, op.busy)
		}
		s.Run()
		if op.Processed != 2 {
			t.Fatalf("processed %d", op.Processed)
		}
		// Two deliveries at the same instant, so the first one's step is
		// deferred behind the second (one step event); the first completion
		// then runs the second step inline; two completions.
		if got := s.Processed(); got != 5 {
			t.Fatalf("%d events for two records, want 5", got)
		}
	})
	t.Run("only a blocked inbox non-empty: no step until UnblockEdge", func(t *testing.T) {
		rt, op, ins := wakeRig(t)
		s := rt.Sched
		op.BlockEdge(ins[1])
		sendRecord(t, ins[0], 1)
		sendRecord(t, ins[1], 2)
		s.Run()
		if op.Processed != 1 {
			t.Fatalf("processed %d, want 1 (the other channel is blocked)", op.Processed)
		}
		if got := s.Processed(); got != 4 {
			t.Fatalf("%d events, want 4 (two deliveries, one step, one completion)", got)
		}
		op.UnblockEdge(ins[1])
		if got := s.Pending(); got != 1 {
			t.Fatalf("%d events pending after UnblockEdge, want the one step", got)
		}
		s.Run()
		if op.Processed != 2 {
			t.Fatalf("processed %d after unblocking", op.Processed)
		}
	})
}

// TestRedirectedPendingHeadReachesNewEdge is the regression test for the
// demand-driven sender wake: the head of the blocked-emission queue is
// registered with the edge that refused it, so when redirection moves the head
// to an edge that never refused anything, the instance must retry on its own —
// the old edge never drains here, so nothing else would wake it.
func TestRedirectedPendingHeadReachesNewEdge(t *testing.T) {
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{Name: "src", Parallelism: 1, Source: func(dataflow.SourceContext) {}})
	g.AddOperator(&dataflow.OperatorSpec{Name: "agg", Parallelism: 2, NewLogic: func() dataflow.Logic { return NewCollectSink() }})
	g.Connect("src", "agg", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	src := rt.Instance("src", 0)
	a, b := src.OutEdges("agg")[0], src.OutEdges("agg")[1]
	rt.Instance("agg", 0).Halted = true // edge a never drains

	// Fill a (edgeCap on the link, edgeCap in the outbox); the next record is
	// refused and becomes the head of the pending queue.
	last := 2*edgeCap + 1
	for i := 1; i <= last; i++ {
		src.send(a, &netsim.Record{Key: uint64(i), KeyGroup: i, Size: 64})
	}
	if a.OutboxLen() != edgeCap || src.PendingEmits() != 1 {
		t.Fatalf("outbox %d pending %d, want %d and 1", a.OutboxLen(), src.PendingEmits(), edgeCap)
	}
	rt.Sched.Run()
	if n := src.RedirectPending(a, b, func(r *netsim.Record) bool { return r.KeyGroup == last }); n != 1 {
		t.Fatalf("redirected %d", n)
	}
	rt.Sched.Run()
	if src.PendingEmits() != 0 || b.Delivered != 1 {
		t.Fatalf("pending %d, delivered on the new edge %d: the redirected head was never retried",
			src.PendingEmits(), b.Delivered)
	}
	if got := rt.Instance("agg", 1).Processed; got != 1 {
		t.Fatalf("new edge's receiver processed %d records, want 1", got)
	}
}
