// Package handlertest is the shared apparatus of the input-handler
// equivalence tests: it drives two identical single-instance rigs with one
// random operation sequence, one polled by the handler under test and one by
// its linear-scan reference, and fails on the first step where they disagree.
// The references themselves live in the _test.go files of the packages that
// own the handlers.
package handlertest

import (
	"fmt"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// Probe is a handler plus a view of its private cursor: the round-robin slot
// and the channel it is committed to (nil when it keeps no commitment).
type Probe struct {
	Handler engine.InputHandler
	State   func() (rr int, stuck *netsim.Edge)
}

// keyGroups is the number of key groups records are spread over; the gate
// hook makes whole groups unprocessable.
const keyGroups = 8

type gate struct {
	engine.BaseHook
	closed [keyGroups]bool
}

func (g *gate) Processable(_ *engine.Instance, r *netsim.Record, _ *netsim.Edge) bool {
	return !g.closed[r.KeyGroup]
}

type discard struct{}

func (discard) OnRecord(dataflow.OpContext, *netsim.Record)  {}
func (discard) OnWatermark(dataflow.OpContext, simtime.Time) {}

// rig is one halted instance op[0] fed by fanIn source instances; only the
// test polls its handler. serial numbers every channel ever attached, so
// channels of the two rigs can be compared after detaches made them stale.
// Watermarks come from wms with one hold each, and a poll that takes one
// puts it back after reading it, as the instance would.
type rig struct {
	s      *simtime.Scheduler
	rt     *engine.Runtime
	in     *engine.Instance
	gate   *gate
	probe  Probe
	serial map[*netsim.Edge]int
	wms    netsim.WatermarkPool
}

func newRig(fanIn int, probe Probe) *rig {
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{Name: "src", Parallelism: fanIn, Source: func(dataflow.SourceContext) {}})
	g.AddOperator(&dataflow.OperatorSpec{Name: "op", Parallelism: 1, NewLogic: func() dataflow.Logic { return discard{} }})
	g.Connect("src", "op", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
	r := &rig{s: s, rt: rt, in: rt.Instance("op", 0), gate: &gate{}, probe: probe, serial: map[*netsim.Edge]int{}}
	r.in.Halted = true
	r.in.SetHook(r.gate)
	r.in.SetHandler(probe.Handler)
	r.number()
	return r
}

// number gives every not yet numbered input channel the next serial.
func (r *rig) number() {
	for _, e := range r.in.InEdges() {
		if _, ok := r.serial[e]; !ok {
			r.serial[e] = len(r.serial)
		}
	}
}

func (r *rig) edgeID(e *netsim.Edge) int {
	if e == nil {
		return -1
	}
	return r.serial[e]
}

// op is one step of the random sequence, addressed by input position so it
// applies to both rigs alike.
type op struct {
	kind int
	ch   int // input position, or source index for attaches
	kg   int
	id   uint64
	shut bool // opGate: the key group's new state
}

const (
	opPoll = iota
	opRecord
	opWatermark
	opRequeue
	opBlock
	opUnblock
	opGate
	opAddSource
	opAttachAux
	opDetach
)

func (r *rig) apply(o op) {
	ins := r.in.InEdges()
	switch o.kind {
	case opRecord:
		ins[o.ch].TrySend(&netsim.Record{Key: o.id, KeyGroup: o.kg, Size: 64})
	case opWatermark:
		ins[o.ch].TrySend(r.wms.Get(simtime.Time(o.id), 1))
	case opRequeue:
		// A handler that peeked a message it could not consume puts it back.
		ins[o.ch].PushFrontInbox(&netsim.Record{Key: o.id, KeyGroup: o.kg, Size: 64})
	case opBlock:
		r.in.BlockEdge(ins[o.ch])
	case opUnblock:
		r.in.UnblockEdge(ins[o.ch])
	case opGate:
		r.gate.closed[o.kg] = o.shut
	case opAddSource:
		r.rt.AddInstance("src", len(r.rt.Instances("src")))
	case opAttachAux:
		r.rt.ConnectInstances(r.rt.Instance("src", o.ch), r.in)
	case opDetach:
		r.rt.DetachInput(r.in, ins[o.ch])
	}
	r.number()
	r.s.Run()
}

// observation is everything one poll lets the outside see.
type observation struct {
	status engine.NextStatus
	msg    string
	edge   int
	rr     int
	stuck  int
}

func (r *rig) poll() observation {
	m, e, st := r.probe.Handler.Next(r.in)
	rr, stuck := r.probe.State()
	o := observation{status: st, edge: r.edgeID(e), rr: rr, stuck: r.edgeID(stuck)}
	switch v := m.(type) {
	case nil:
	case *netsim.Record:
		o.msg = fmt.Sprintf("record %d", v.Key)
	case *netsim.Watermark:
		o.msg = fmt.Sprintf("watermark %d", v.WM)
		r.wms.Put(v)
	default:
		o.msg = fmt.Sprintf("%T", m)
	}
	r.s.Run() // a pop re-pumps the link
	return o
}

// checkReady asserts the instance's admissible-slot view against the channels
// themselves: slot i is found exactly when its inbox is non-empty and it is
// not blocked.
func (r *rig) checkReady(t *testing.T, step int) {
	t.Helper()
	for i, e := range r.in.InEdges() {
		want := e.InboxLen() > 0 && !r.in.EdgeBlocked(e)
		if got := r.in.NextReady(i, i+1) == i; got != want {
			t.Fatalf("step %d: slot %d admissible=%v, but inbox %d blocked %v", step, i, got, e.InboxLen(), r.in.EdgeBlocked(e))
		}
		if e.Slot() != i {
			t.Fatalf("step %d: channel at position %d carries slot %d", step, i, e.Slot())
		}
	}
}

// Equivalence runs steps random operations — arrivals of records and
// watermarks, requeues, alignment blocks and unblocks, key groups turning
// unprocessable and back, source instances added, auxiliary channels
// attached, channels detached — against a rig polled by mk's handler and a
// twin polled by mkRef's, and requires every poll to return the same message,
// channel and status and to leave the same cursor.
func Equivalence(t *testing.T, fanIn, steps int, seed int64, mk, mkRef func() Probe) {
	t.Helper()
	a, b := newRig(fanIn, mk()), newRig(fanIn, mkRef())
	rng := simtime.NewRNG(seed, fmt.Sprintf("handlertest/%d", fanIn))
	var id uint64
	var seen [3]int // polls by status
	for step := 0; step < steps; step++ {
		n := len(a.in.InEdges())
		// Cycle every 500 steps through a sparse phase that starts with every
		// gate open and every channel unblocked and closes none (the inboxes
		// drain, and mostly one channel is ready at a time), a mixed one and a dense one
		// (arrivals outpace polls).
		phase := step / 500 % 3
		arrive := [3]int{5, 30, 60}[phase]
		if step%1500 == 0 {
			a.gate.closed, b.gate.closed = [keyGroups]bool{}, [keyGroups]bool{}
			for i := 0; i < n; i++ {
				o := op{kind: opUnblock, ch: i}
				a.apply(o)
				b.apply(o)
			}
		}
		o := op{kind: opPoll}
		switch p := rng.IntN(100); {
		case n == 0:
			o.kind = opAddSource
		case p < arrive:
			id++
			o = op{kind: opRecord, ch: rng.IntN(n), kg: rng.IntN(keyGroups), id: id}
			if rng.IntN(8) == 0 {
				o.kind = opWatermark
			} else if rng.IntN(40) == 0 {
				o.kind = opRequeue
			}
		default:
			switch q := rng.IntN(100); {
			case q < 70:
			case q < 77:
				o = op{kind: opBlock, ch: rng.IntN(n)}
			case q < 86:
				o = op{kind: opUnblock, ch: rng.IntN(n)}
			case q < 93:
				o = op{kind: opGate, kg: rng.IntN(keyGroups), shut: phase != 0 && rng.IntN(2) == 0}
			case q < 95 && n < fanIn+8:
				o = op{kind: opAddSource}
			case q < 97 && n < fanIn+8:
				o = op{kind: opAttachAux, ch: rng.IntN(len(a.rt.Instances("src")))}
			case q < 99:
				o = op{kind: opDetach, ch: rng.IntN(n)}
			}
		}
		if o.kind != opPoll {
			a.apply(o)
			b.apply(o)
			a.checkReady(t, step)
			continue
		}
		got, want := a.poll(), b.poll()
		if got != want {
			t.Fatalf("fan-in %d step %d: handler %+v, linear-scan reference %+v", fanIn, step, got, want)
		}
		seen[got.status]++
		a.checkReady(t, step)
	}
	for st, n := range seen {
		if n < steps/200 {
			t.Fatalf("the sequence produced only %d polls with status %d in %d steps", n, st, steps)
		}
	}
}
