package meces

// OnTransferSettled sets fn to run after every transfer's install or failure
// callback.
func (m *Mechanism) OnTransferSettled(fn func()) { m.afterTransfer = fn }

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
