package core

import (
	"testing"

	"drrs/internal/netsim"
	"drrs/internal/scaling"
)

// TestConfirmGateAllocs guards the destination gate under Record Scheduling:
// the scheduling handler probes every buffered record through it, so a
// record whose chunk is installed but whose channel's confirm is pending
// must be refused without allocating.
func TestConfirmGateAllocs(t *testing.T) {
	rig := newHandlerRig(t)
	plan := scaling.UniformPlan(rig.rt.Graph, "agg", 2, 0)
	dst := rig.rt.AddInstance("agg", 1)
	mv := plan.Moves[0]
	s := &subscale{confirmSeen: map[confirmKey]bool{}}
	m := &Mechanism{
		Opt:           Options{DR: true, Schedule: true, Subscale: true},
		plan:          plan,
		kgs:           make([]kgStatus, len(plan.Moves)),
		edgeIsReroute: map[*netsim.Edge]bool{},
	}
	m.kgs[0] = kgStatus{sub: s, phase: landed}
	h := &opHook{m: m}
	e := rig.rt.Instance("srcA", 0).OutEdges("agg")[dst.Index]
	r := &netsim.Record{Key: 1, KeyGroup: mv.KeyGroup, Size: 64}
	if h.Processable(dst, r, e) {
		t.Fatal("record processable before its channel's confirm arrived")
	}
	if avg := testing.AllocsPerRun(1000, func() { h.Processable(dst, r, e) }); avg != 0 {
		t.Fatalf("confirm gate allocates %.2f objects per probe, want 0", avg)
	}
	s.confirmSeen[confirmKey{dst.Index, mv.From, e.Src.Op, e.Src.Index}] = true
	if !h.Processable(dst, r, e) {
		t.Fatal("record still gated after its channel's confirm arrived")
	}
}
