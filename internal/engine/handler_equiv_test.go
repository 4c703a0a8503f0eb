package engine_test

import (
	"fmt"
	"testing"

	"drrs/internal/engine"
	"drrs/internal/engine/handlertest"
	"drrs/internal/netsim"
)

// linearNativeHandler is NativeHandler as it was before input channels had
// slots: a round-robin poll of every channel. It is the reference the
// slot-indexed handler must match poll for poll.
type linearNativeHandler struct {
	rr    int
	stuck *netsim.Edge
}

func (h *linearNativeHandler) Next(in *engine.Instance) (netsim.Message, *netsim.Edge, engine.NextStatus) {
	if h.stuck != nil {
		e := h.stuck
		if in.EdgeBlocked(e) || e.InboxLen() == 0 {
			h.stuck = nil
		} else {
			m := e.InboxAt(0)
			if !in.CanProcess(m, e) {
				return nil, e, engine.NextSuspended
			}
			h.stuck = nil
			return e.PopInbox(), e, engine.NextOK
		}
	}
	n := len(in.InEdges())
	if n == 0 {
		return nil, nil, engine.NextIdle
	}
	for k := 0; k < n; k++ {
		h.rr = (h.rr + 1) % n
		e := in.InEdges()[h.rr]
		if in.EdgeBlocked(e) || e.InboxLen() == 0 {
			continue
		}
		m := e.InboxAt(0)
		if !in.CanProcess(m, e) {
			h.stuck = e
			return nil, e, engine.NextSuspended
		}
		return e.PopInbox(), e, engine.NextOK
	}
	return nil, nil, engine.NextIdle
}

func TestNativeHandlerMatchesLinearScan(t *testing.T) {
	for _, fanIn := range []int{1, 63, 64, 65, 300} {
		t.Run(fmt.Sprintf("fanin%d", fanIn), func(t *testing.T) {
			handlertest.Equivalence(t, fanIn, 12000, 1,
				func() handlertest.Probe {
					h := &engine.NativeHandler{}
					return handlertest.Probe{Handler: h, State: h.State}
				},
				func() handlertest.Probe {
					h := &linearNativeHandler{}
					return handlertest.Probe{Handler: h, State: func() (int, *netsim.Edge) { return h.rr, h.stuck }}
				})
		})
	}
}
