package meces

import "drrs/internal/state"

// OnTransferSettled sets fn to run after every transfer's install or failure
// callback.
func (m *Mechanism) OnTransferSettled(fn func()) { m.afterTransfer = func(*state.Chunk) { fn() } }

// OnChunkReturned sets fn to run after every transfer's install or failure
// callback with the transfer's chunk and the spare list it went back to.
func (m *Mechanism) OnChunkReturned(fn func(c *state.Chunk, spare []*state.Chunk)) {
	m.afterTransfer = func(c *state.Chunk) { fn(c, m.spare) }
}

// Counters returns the incremental away, idle-away and in-flight counters.
func (m *Mechanism) Counters() (away, idleAway, inFlight int) {
	return m.away, m.idleAway, m.moving
}

// Recount recounts away, idle-away and in-flight sub-units by full scan.
func (m *Mechanism) Recount() (away, idleAway, inFlight int) {
	for id, loc := range m.loc {
		isAway := loc != m.targetOf(id)
		if isAway {
			away++
		}
		if m.inFlight[id] {
			inFlight++
		} else if isAway {
			idleAway++
		}
	}
	return away, idleAway, inFlight
}
