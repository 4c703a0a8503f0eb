package engine

import "drrs/internal/netsim"

// State exposes the native handler's cursor to the equivalence test.
func (h *NativeHandler) State() (rr int, stuck *netsim.Edge) { return h.rr, h.stuck }

// SendControl enqueues a control message toward one downstream instance,
// preserving order relative to pending emissions.
func (in *Instance) SendControl(op string, idx int, m netsim.Message) {
	in.send(in.portByOp[op].edges[idx], m)
}

// PendingEmits reports the blocked-emission queue length.
func (in *Instance) PendingEmits() int { return len(in.pending) - in.pendHead }

// CheckpointRunning reports whether an aligned checkpoint is in flight.
func (rt *Runtime) CheckpointRunning() bool { return rt.ckpt != nil }
