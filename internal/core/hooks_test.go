package core

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
)

// TestConfirmGateAllocs guards the destination gate under Record Scheduling:
// the scheduling handler probes every buffered record through it, so a
// record whose chunk is installed but whose channel's confirm is pending
// must be refused without allocating.
func TestConfirmGateAllocs(t *testing.T) {
	rig := newHandlerRig(t)
	const kg, src = 3, 1
	s := &subscale{confirmSeen: map[confirmKey]bool{}}
	m := &Mechanism{
		Opt:           Options{DR: true, Schedule: true, Subscale: true},
		subOfKG:       map[int]*subscale{kg: s},
		moveOf:        map[int]dataflow.Move{kg: {KeyGroup: kg, From: src, To: rig.agg.Index}},
		chunkAt:       map[int]bool{kg: true},
		reverted:      map[int]bool{},
		edgeIsReroute: map[*netsim.Edge]bool{},
	}
	h := &opHook{m: m}
	e := rig.rt.Instance("srcA", 0).OutEdges("agg")[0]
	r := &netsim.Record{Key: 1, KeyGroup: kg, Size: 64}
	if h.Processable(rig.agg, r, e) {
		t.Fatal("record processable before its channel's confirm arrived")
	}
	if avg := testing.AllocsPerRun(1000, func() { h.Processable(rig.agg, r, e) }); avg != 0 {
		t.Fatalf("confirm gate allocates %.2f objects per probe, want 0", avg)
	}
	s.confirmSeen[confirmKey{rig.agg.Index, src, e.Src.Op, e.Src.Index}] = true
	if !h.Processable(rig.agg, r, e) {
		t.Fatal("record still gated after its channel's confirm arrived")
	}
}
