package core

import (
	"drrs/internal/engine"
	"drrs/internal/netsim"
)

// opHook is DRRS's per-instance executor on the scaling operator. An
// instance can be migration source and destination at once (uniform
// repartitioning moves groups between original instances too), so one hook
// covers both roles:
//
//   - Barrier Handler (B2): consumes trigger barriers (first one starts the
//     subscale's migration; later ones are ignored) and re-routes confirm
//     barriers to the migration targets.
//   - Re-route Manager (B4): records whose state migrated out are forwarded
//     over the re-route path as special events, in channel order, so the
//     target sees every Ep record of a predecessor before that
//     predecessor's rerouted confirm.
//   - Destination gating: a record for a migrating group is processable
//     only once its state chunk arrived AND its epoch is confirmed — per
//     predecessor channel under Record Scheduling ("fluid confirmation"),
//     or after full implicit alignment otherwise.
type opHook struct {
	engine.BaseHook
	m *Mechanism
}

func (h *opHook) Processable(in *engine.Instance, r *netsim.Record, e *netsim.Edge) bool {
	m := h.m
	mv, st := m.entry(r.KeyGroup)
	if st == nil {
		return true
	}
	if st.phase == reverted {
		// The chunk transfer failed and the group lives back at its source.
		// Let records through everywhere: the source processes them normally;
		// stragglers already routed at the dead destination fall to the
		// keyed-state backstop (dropped and counted lost) instead of wedging
		// the channel.
		return true
	}
	// Ep records arriving on a re-route path only need their state chunk:
	// their order against the confirm barrier is preserved by the channel.
	if m.edgeIsReroute[e] {
		return st.phase == landed
	}
	if mv.To != in.Index {
		// Source role (or unrelated): process locally while the state is
		// here; BeforeRecord re-routes once it is gone.
		return true
	}
	// Destination role: Ef records wait for the chunk and the epoch switch.
	if st.phase != landed {
		return false
	}
	if m.Opt.Schedule {
		// Fluid confirmation: each channel switches epochs independently as
		// soon as its own rerouted confirm arrived.
		return st.sub.confirmSeen[confirmKey{in.Index, mv.From, e.Src.Op, e.Src.Index}]
	}
	return st.sub.confirmsLeftAt[in.Index] == 0
}

func (h *opHook) BeforeRecord(in *engine.Instance, r *netsim.Record, e *netsim.Edge) bool {
	m := h.m
	mv, st := m.entry(r.KeyGroup)
	if st == nil || (st.phase != extracted && st.phase != landed) || mv.From != in.Index {
		return false
	}
	// Re-route: forwarded as a special event, never suspended. ForceSend
	// keeps it ordered behind earlier re-routes; the paper bounds this
	// traffic by the input-cache size.
	m.rerouteEdges[[2]int{mv.From, mv.To}].ForceSend(&netsim.Rerouted{Inner: r, Subscale: st.sub.id})
	return true
}

func (h *opHook) OnScaleMessage(in *engine.Instance, msg netsim.Message, e *netsim.Edge) bool {
	m := h.m
	switch b := msg.(type) {
	case *netsim.TriggerBarrier:
		if b.ScaleID != m.scaleID {
			return false
		}
		s := m.subs[b.Subscale]
		// Fig 9b: a checkpoint barrier already sitting in the input buffer
		// must fire before migration starts — the trigger integrates into
		// it and replays after the snapshot.
		if cb := pendingCheckpoint(in); cb != nil {
			m.rt.Scale.AddCounter("drrs_ckpt_integrated_inbox", 1)
			cb.Integrated = append(cb.Integrated, b)
			return true
		}
		if !s.triggered[in.Index] {
			s.triggered[in.Index] = true
			m.startMigration(s, in.Index)
		}
		return true
	case *netsim.ConfirmBarrier:
		if b.ScaleID != m.scaleID {
			return false
		}
		s := m.subs[b.Subscale]
		// Re-route the confirm to every destination this source serves,
		// duplicating across streams per the paper's compatibility rule.
		for _, dst := range s.dstsOf(in.Index) {
			m.rerouteEdges[[2]int{in.Index, dst}].ForceSend(&netsim.Rerouted{Inner: b, Subscale: s.id})
		}
		return true
	case *netsim.Rerouted:
		switch inner := b.Inner.(type) {
		case *netsim.ConfirmBarrier:
			// A superseding operation's hook can drain confirms the previous
			// operation re-routed before it was cancelled; matching on the
			// inner barrier's ScaleID keeps them from corrupting this one's
			// alignment state.
			if inner.ScaleID != m.scaleID {
				return true
			}
			s := m.subs[b.Subscale]
			key := confirmKey{in.Index, e.Src.Index, inner.FromOp, inner.FromIdx}
			if !s.confirmSeen[key] {
				s.confirmSeen[key] = true
				s.confirmsLeftAt[in.Index]--
				s.confirmsLeft--
				in.Wake()
				m.checkSubscale(s)
			}
		case *netsim.Record:
			if inner.Marker {
				in.ForwardMarker(inner)
				break
			}
			// The handler's CanProcess gate guarantees the chunk is local.
			in.ApplyRecord(inner)
		}
		m.maybeCleanup()
		return true
	}
	return false
}

// pendingCheckpoint scans an instance's input buffers for an unprocessed
// checkpoint barrier (the Fig 9b condition).
func pendingCheckpoint(in *engine.Instance) *netsim.CheckpointBarrier {
	for _, e := range in.InEdges() {
		if i := e.FindInbox(func(m netsim.Message) bool {
			return m.MsgKind() == netsim.KindCheckpointBarrier
		}); i >= 0 {
			return e.InboxAt(i).(*netsim.CheckpointBarrier)
		}
	}
	return nil
}
