package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// fanInRig builds fanIn idle source instances feeding one halted sink
// instance, whose input channels the tests fill and poll by hand.
func fanInRig(fanIn int) (*Runtime, *Instance) {
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{Name: "src", Parallelism: fanIn, Source: func(dataflow.SourceContext) {}})
	g.AddOperator(&dataflow.OperatorSpec{Name: "sink", Parallelism: 1, NewLogic: func() dataflow.Logic { return NewCollectSink() }})
	g.Connect("src", "sink", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	in := rt.Instance("sink", 0)
	in.Halted = true
	return rt, in
}

// TestStaleEdgeIsHarmless detaches the middle one of three inputs while its
// neighbour is alignment-blocked and a watermark is still queued on it. The
// neighbour inherits the detached channel's slot, so anything that indexed
// with the stale slot would hit the neighbour: every per-channel entry point
// must instead ignore the detached channel.
func TestStaleEdgeIsHarmless(t *testing.T) {
	rt, in := fanInRig(3)
	e0, e1, e2 := in.ins[0], in.ins[1], in.ins[2]
	in.onWatermark(&netsim.Watermark{WM: 10}, e0)
	in.onWatermark(&netsim.Watermark{WM: 30}, e2)
	in.BlockEdge(e2)
	e1.TrySend(&netsim.Watermark{WM: 99})
	e2.TrySend(&netsim.Record{Key: 7, Size: 64})
	rt.Sched.Run()

	rt.DetachInput(in, e1)

	if len(in.ins) != 2 || in.ins[0] != e0 || in.ins[1] != e2 || e2.Slot() != 1 || e1.Slot() != -1 {
		t.Fatalf("inputs after detach: %v, slots e1=%d e2=%d", in.ins, e1.Slot(), e2.Slot())
	}
	if !in.EdgeBlocked(e2) || in.EdgeBlocked(e0) || in.EdgeBlocked(e1) {
		t.Fatalf("blocked after detach: e0=%v e1=%v e2=%v, want only e2", in.EdgeBlocked(e0), in.EdgeBlocked(e1), in.EdgeBlocked(e2))
	}
	if got := in.NextReady(0, 2); got != -1 {
		t.Fatalf("slot %d admissible, but the only queued channel is blocked", got)
	}

	// The watermark that was pending on the detached channel arrives now, and
	// so does every other per-channel call naming it. Its value goes nowhere;
	// alignment is over the two channels that remain.
	in.apply(e1.PopInbox(), e1)
	in.SeedWatermark(e1, 5)
	in.BlockEdge(e1)
	if in.EdgeBlocked(e1) || in.EdgeBlocked(e0) {
		t.Fatal("blocking a detached channel must block nothing")
	}
	in.UnblockEdge(e1)
	if !in.EdgeBlocked(e2) {
		t.Fatal("unblocking a detached channel released its neighbour")
	}
	if in.wm.v[0] != 10 || in.wm.v[1] != 30 || in.curWM != 10 {
		t.Fatalf("stale watermark leaked: wm %v cur %v", in.wm.v, in.curWM)
	}
	rt.DetachInput(in, e1) // a second detach is a no-op
	if len(in.ins) != 2 {
		t.Fatalf("second detach removed a channel: %v", in.ins)
	}

	in.onWatermark(&netsim.Watermark{WM: 20}, e0)
	if in.curWM != 20 {
		t.Fatalf("watermark %v, want 20 = min(20, 30)", in.curWM)
	}
	in.UnblockEdge(e2)
	if m, e, st := in.handler.Next(in); st != NextOK || e != e2 || m.(*netsim.Record).Key != 7 {
		t.Fatalf("after unblocking: %v %v %v, want the record queued on e2", m, e, st)
	}
}

// TestWatermarkAlignmentAcrossAttachSeedDetach follows the aligned watermark
// through every way the input list changes: an auxiliary channel seeded
// transparent, a predecessor instance added without a seed, a late -1 seed
// (AddInstance's seed, under which -1 restarts the minimum: a known defect,
// ROADMAP item 18), and detaches that renumber the channels behind them.
func TestWatermarkAlignmentAcrossAttachSeedDetach(t *testing.T) {
	rt, in := fanInRig(2)
	e0, e1 := in.ins[0], in.ins[1]
	var aux, e3 *netsim.Edge
	wm := func(e **netsim.Edge, v simtime.Time) func() {
		return func() { in.onWatermark(&netsim.Watermark{WM: v}, *e) }
	}
	steps := []struct {
		name string
		do   func()
		want simtime.Time
	}{
		{"one of two channels reported", wm(&e0, 10), -1},
		{"both reported: the minimum", wm(&e1, 20), 10},
		{"attach a re-route channel", func() { aux = rt.ConnectInstances(rt.Instance("src", 0), in) }, 10},
		{"its transparent seed never holds alignment back", wm(&e0, 30), 20},
		{"a new predecessor's channel starts unset", func() {
			rt.AddInstance("src", 2)
			e3 = in.ins[3]
		}, 20},
		{"and stalls alignment until seeded", wm(&e1, 40), 20},
		{"seed it -1", func() { in.SeedWatermark(e3, -1) }, 20},
		{"known defect, item 18: a -1 seed restarts the minimum at the channels behind it (none)", wm(&e1, 41), 20},
		{"its first real watermark", wm(&e3, 35), 30},
		{"a second seed is ignored", func() { in.SeedWatermark(e3, 99) }, 30},
		{"minimum moves to the new channel", wm(&e0, 50), 35},
		{"detach the re-route channel: e3 moves down a slot", func() { rt.DetachInput(in, aux) }, 35},
		{"and keeps its watermark", wm(&e3, 60), 41},
		{"a watermark still in flight on the detached channel", wm(&aux, 1000), 41},
		{"detach the slowest channel", func() { rt.DetachInput(in, e1) }, 41},
		{"alignment is over the two that remain", wm(&e0, 51), 51},
	}
	for _, s := range steps {
		s.do()
		if in.curWM != s.want {
			t.Fatalf("%s: watermark %v, want %v (per slot %v)", s.name, in.curWM, s.want, in.wm.v)
		}
	}
	if len(in.ins) != 2 || in.ins[0] != e0 || in.ins[1] != e3 || e3.Slot() != 1 {
		t.Fatalf("inputs %v, e3 slot %d", in.ins, e3.Slot())
	}
}
