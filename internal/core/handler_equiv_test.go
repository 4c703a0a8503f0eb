package core

import (
	"fmt"
	"testing"

	"drrs/internal/engine"
	"drrs/internal/engine/handlertest"
	"drrs/internal/netsim"
)

// linearSchedulingHandler is SchedulingHandler as it was before input
// channels had slots: pass 1 polls every channel in round-robin order. It is
// the reference the slot-indexed handler must match poll for poll.
type linearSchedulingHandler struct {
	depth int
	rr    int
}

func (h *linearSchedulingHandler) Next(in *engine.Instance) (netsim.Message, *netsim.Edge, engine.NextStatus) {
	ins := in.InEdges()
	n := len(ins)
	if n == 0 {
		return nil, nil, engine.NextIdle
	}
	queued := false
	for k := 0; k < n; k++ {
		h.rr = (h.rr + 1) % n
		e := ins[h.rr]
		if in.EdgeBlocked(e) || e.InboxLen() == 0 {
			continue
		}
		queued = true
		if in.CanProcess(e.InboxAt(0), e) {
			return e.PopInbox(), e, engine.NextOK
		}
	}
	if !queued {
		return nil, nil, engine.NextIdle
	}
	for k := 0; k < n; k++ {
		e := ins[(h.rr+k)%n]
		if in.EdgeBlocked(e) {
			continue
		}
		limit := e.InboxLen()
		if limit > h.depth {
			limit = h.depth
		}
		for i := 1; i < limit; i++ {
			msg := e.InboxAt(i)
			if !isSchedulableData(msg) {
				break
			}
			if in.CanProcess(msg, e) {
				return e.RemoveInboxAt(i), e, engine.NextOK
			}
		}
	}
	return nil, nil, engine.NextSuspended
}

func TestSchedulingHandlerMatchesLinearScan(t *testing.T) {
	const depth = 6 // shallow, so the depth limit bites as often as the fences
	for _, fanIn := range []int{1, 63, 64, 65, 300} {
		t.Run(fmt.Sprintf("fanin%d", fanIn), func(t *testing.T) {
			handlertest.Equivalence(t, fanIn, 12000, 1,
				func() handlertest.Probe {
					h := &SchedulingHandler{Depth: depth}
					return handlertest.Probe{Handler: h, State: func() (int, *netsim.Edge) { return h.rr, nil }}
				},
				func() handlertest.Probe {
					h := &linearSchedulingHandler{depth: depth}
					return handlertest.Probe{Handler: h, State: func() (int, *netsim.Edge) { return h.rr, nil }}
				})
		})
	}
}
