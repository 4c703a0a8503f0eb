package engine

import (
	"fmt"
	"slices"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// AddInstance creates instance idx of an already-running operator and wires
// it to every predecessor and successor instance. The new instance owns no
// key groups and receives no traffic until predecessors' routing tables are
// updated — exactly the state a scaling mechanism starts from after physical
// deployment (the paper's Deploy Updater, B0).
//
// Returns the new instance. idx must equal the operator's current instance
// count (instances are appended).
func (rt *Runtime) AddInstance(op string, idx int) *Instance {
	spec := rt.Graph.Operator(op)
	if spec == nil {
		panic(fmt.Sprintf("engine: AddInstance on unknown operator %s", op))
	}
	if idx != len(rt.instances[op]) {
		panic(fmt.Sprintf("engine: AddInstance %s[%d] out of order (have %d)", op, idx, len(rt.instances[op])))
	}
	in := rt.newInstance(spec, idx)
	rt.instances[op] = append(rt.instances[op], in)

	// Wire from every predecessor instance.
	for _, se := range rt.Graph.Inputs(op) {
		for _, from := range rt.instances[se.From] {
			rt.wire(from, in, se)
		}
	}
	// Wire toward every successor instance, and copy routing tables so the
	// new instance routes like its siblings.
	for _, se := range rt.Graph.Outputs(op) {
		for _, to := range rt.instances[se.To] {
			rt.wire(in, to, se)
		}
		if se.Exchange == dataflow.ExchangeKeyed {
			if sib := rt.Instance(op, 0); sib != nil && sib.Routing(se.To) != nil {
				in.SetRouting(se.To, sib.Routing(se.To).Clone())
			}
		}
	}
	// Seed each input with -1, "no watermark yet", not with the upstream
	// watermark: alignment then takes the minimum over the slots after the
	// last -1 slot only, so the result depends on slot order. The fix moves
	// digests (ROADMAP item 18, queued change 6).
	for _, e := range in.ins {
		in.SeedWatermark(e, -1)
	}
	return in
}

// ConnectInstances wires a dedicated auxiliary channel between two live
// instances (DRRS's re-route path from the scaling-out instance to the
// scaling-in instance). The channel is registered as an input of dst so
// handlers poll it like any other channel. Its watermark is seeded
// "transparent" (effectively +inf) so it never holds back the receiver's
// aligned watermark — rerouted records are Ep-epoch stragglers, not a
// watermarked stream of their own.
func (rt *Runtime) ConnectInstances(src, dst *Instance) *netsim.Edge {
	e := rt.newEdge(src, dst)
	e.Auxiliary = true
	dst.addInput(e)
	dst.SeedWatermark(e, simtime.Time(1)<<62)
	return e
}

// DetachInput removes an auxiliary input channel from dst (scaling cleanup,
// so alignment counts return to normal after the scaling completes). The
// channels behind it move down one slot, taking their watermark and their
// ready and blocked bits along; e itself becomes a stale edge, which every
// per-channel entry point of dst ignores.
func (rt *Runtime) DetachInput(dst *Instance, e *netsim.Edge) {
	i := dst.slotOf(e)
	if i < 0 {
		return
	}
	dst.ins = slices.Delete(dst.ins, i, i+1)
	dst.wm.remove(i)
	e.UnbindInput()
	n := len(dst.ins)
	for j := i; j < n; j++ {
		dst.blocked.Assign(j, dst.blocked.Has(j+1))
		dst.ins[j].BindInput(&dst.ready, j)
	}
	dst.blocked.Clear(n)
	dst.ready.Clear(n)
}

// PredecessorInstances returns the live instances of every direct
// predecessor operator of op.
func (rt *Runtime) PredecessorInstances(op string) []*Instance {
	var out []*Instance
	for _, p := range rt.Graph.Predecessors(op) {
		out = append(out, rt.instances[p]...)
	}
	return out
}
