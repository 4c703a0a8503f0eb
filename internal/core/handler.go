package core

import (
	"drrs/internal/engine"
	"drrs/internal/netsim"
)

// SchedulingHandler is DRRS's Record Scheduling input handler (the paper's
// Scale Input Handler B1 plus Suspend Manager B3). It prevents processing
// suspensions through semantic-preserving adjustments of the engine-level
// execution order:
//
//   - Inter-channel Scheduling: when the current channel's head is
//     unprocessable, switch to any channel whose head is — legal because
//     cross-channel order is inherently non-deterministic.
//   - Intra-channel Scheduling: when every head is unprocessable, scan up
//     to Depth records deep (the paper's 200-record pre-serialized buffer)
//     and bypass unprocessable records — but never across a control message
//     (watermarks, checkpoint/scale/confirm barriers are fences, preserving
//     time semantics and epoch boundaries).
//
// Bypassing never reorders records of the same key: all records of a key
// group share processability, so a bypassed record and the record taken in
// its place are always from different groups.
//
// The instance suspends only when every queued record is unprocessable —
// exactly the paper's Suspend Manager rule.
type SchedulingHandler struct {
	// Depth bounds the intra-channel scan (default bufferDepth).
	Depth int
	rr    int
}

// bufferDepth is Record Scheduling's default intra-channel scan depth, the
// paper's 200-record pre-serialized buffer.
const bufferDepth = 200

// Next implements engine.InputHandler.
func (h *SchedulingHandler) Next(in *engine.Instance) (netsim.Message, *netsim.Edge, engine.NextStatus) {
	ins := in.InEdges()
	n := len(ins)
	if n == 0 {
		return nil, nil, engine.NextIdle
	}
	depth := h.Depth
	if depth <= 0 {
		depth = bufferDepth
	}
	queued := false
	// Pass 1 — inter-channel: serve the first channel whose head is
	// processable, round-robin for fairness: one lap over the channels that
	// have data and are not blocked, from the slot after rr, wrapping.
	start := (h.rr + 1) % n
	for _, span := range [2][2]int{{start, n}, {0, start}} {
		for slot := in.NextReady(span[0], span[1]); slot >= 0; slot = in.NextReady(slot+1, span[1]) {
			queued = true
			e := ins[slot]
			if in.CanProcess(e.InboxAt(0), e) {
				h.rr = slot
				return e.PopInbox(), e, engine.NextOK
			}
		}
	}
	h.rr %= n // a full lap leaves rr where it was, folded into range
	if !queued {
		return nil, nil, engine.NextIdle
	}
	// Pass 2 — intra-channel: bypass unprocessable records up to the buffer
	// depth, fencing on control messages.
	for k := 0; k < n; k++ {
		e := ins[(h.rr+k)%n]
		if in.EdgeBlocked(e) {
			continue
		}
		limit := e.InboxLen()
		if limit > depth {
			limit = depth
		}
		for i := 1; i < limit; i++ {
			msg := e.InboxAt(i)
			if !isSchedulableData(msg) {
				break // fence: never cross control messages
			}
			if in.CanProcess(msg, e) {
				return e.RemoveInboxAt(i), e, engine.NextOK
			}
		}
	}
	return nil, nil, engine.NextSuspended
}

// isSchedulableData reports whether the intra-channel scan may hop over or
// take this message: data records (possibly rerouted) only.
func isSchedulableData(m netsim.Message) bool {
	switch v := m.(type) {
	case *netsim.Record:
		return true
	case *netsim.Rerouted:
		_, isRec := v.Inner.(*netsim.Record)
		return isRec
	default:
		return false
	}
}

// drHandler is the input handler installed on scaling-operator instances
// while a decoupled (DR) scaling runs. Re-route channels are served first as
// special events — rerouted records and confirm barriers are "not affected
// by processing suspension" (paper §III-A) — and an unprocessable re-route
// head never commits the task (it is skipped, not suspended on). Ordinary
// channels are then served by Record Scheduling when enabled, or by native
// (stock Flink) semantics otherwise.
type drHandler struct {
	m        *Mechanism
	schedule bool
	sched    SchedulingHandler
	native   engine.NativeHandler
}

// Next implements engine.InputHandler.
func (h *drHandler) Next(in *engine.Instance) (netsim.Message, *netsim.Edge, engine.NextStatus) {
	for _, e := range h.m.reroutesInto[in.Index] {
		if in.EdgeBlocked(e) || e.InboxLen() == 0 {
			continue
		}
		if in.CanProcess(e.InboxAt(0), e) {
			return e.PopInbox(), e, engine.NextOK
		}
	}
	if h.schedule {
		return h.sched.Next(in)
	}
	return h.native.Next(in)
}
