package engine

import (
	"drrs/internal/netsim"
)

// NextStatus reports the outcome of an input-handler poll.
type NextStatus int

// Poll outcomes.
const (
	// NextIdle: no consumable input exists right now.
	NextIdle NextStatus = iota
	// NextOK: a message was consumed and should be processed.
	NextOK
	// NextSuspended: input is queued but the head is unprocessable — the
	// instance is suspension-blocked waiting for state migration. This is
	// the Ls the paper measures.
	NextSuspended
)

// InputHandler selects the next message an instance processes. It is the
// seam the paper's Scale Input Handler (B1) replaces: the native handler
// implements stock Flink behaviour; mechanisms install their own.
type InputHandler interface {
	Next(in *Instance) (netsim.Message, *netsim.Edge, NextStatus)
}

// NativeHandler models Flink's stock input gate: it serves channels in
// round-robin order of data availability, and once it commits to a channel
// whose head record cannot be processed, the whole task blocks on it until
// the record becomes processable — exactly the baseline suspension behaviour
// the paper attacks with Record Scheduling. rr is the slot served last.
type NativeHandler struct {
	rr    int
	stuck *netsim.Edge
}

// Next implements InputHandler.
func (h *NativeHandler) Next(in *Instance) (netsim.Message, *netsim.Edge, NextStatus) {
	if h.stuck != nil {
		e := h.stuck
		if in.EdgeBlocked(e) || e.InboxLen() == 0 {
			// The committed channel went away (alignment block or a priority
			// message consumed elsewhere); release the commitment.
			h.stuck = nil
		} else {
			m := e.InboxAt(0)
			if !in.CanProcess(m, e) {
				return nil, e, NextSuspended
			}
			h.stuck = nil
			return e.PopInbox(), e, NextOK
		}
	}
	n := len(in.ins)
	if n == 0 {
		return nil, nil, NextIdle
	}
	// The next channel after rr, wrapping, that has data and is not blocked:
	// what a round-robin poll of every channel would stop at. rr can exceed
	// n after inputs were detached, so the wrap is a modulo, taken only when
	// it is needed.
	start := h.rr + 1
	if start >= n {
		start %= n
	}
	slot := in.NextReady(start, n)
	if slot < 0 {
		slot = in.NextReady(0, start)
	}
	if slot < 0 {
		h.rr %= n // a full fruitless lap leaves rr where it was, folded into range
		return nil, nil, NextIdle
	}
	h.rr = slot
	e := in.ins[slot]
	if !in.CanProcess(e.InboxAt(0), e) {
		// Commit to this channel and block: stock engines cannot skip
		// within or across channels once data is at the gate.
		h.stuck = e
		return nil, e, NextSuspended
	}
	return e.PopInbox(), e, NextOK
}
