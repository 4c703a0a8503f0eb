package engine

import (
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// stateSnapshot is one periodic out-of-band copy of every live instance's
// keyed state (plus progress counters), keyed by instance name.
type stateSnapshot struct {
	at        simtime.Time
	order     []string // instance names in EachInstance order
	ops       map[string]string
	groups    map[string]map[int]*state.Group
	processed map[string]uint64
}

// StateCheckpointer takes periodic deep snapshots of all keyed state for
// fault recovery. It is deliberately out-of-band: unlike the engine's aligned
// checkpoints (TriggerCheckpoint), these snapshots cost no simulated time —
// the price of recovery is paid where it belongs, as replay time when a
// crashed instance restores (faults.Injector charges it via ChargeBusy).
//
// The two most recent snapshots are retained. One is not enough: a key group
// extracted for migration at the instant of the newest snapshot lives in
// neither store, and a snapshot taken while an instance is dead records
// nothing for it — the older snapshot covers both windows.
//
// Only started when a fault plan is active, so unfaulted runs schedule no
// snapshot events and stay byte-identical.
type StateCheckpointer struct {
	rt    *Runtime
	every simtime.Duration
	snaps [2]*stateSnapshot // [0] newest
	timer simtime.Timer
}

// StartStateCheckpoints begins periodic state snapshots on the given cadence,
// taking the first one immediately so recovery always has a baseline. Call
// Stop at teardown or the rearming timer keeps the scheduler alive forever.
func (rt *Runtime) StartStateCheckpoints(every simtime.Duration) *StateCheckpointer {
	if every <= 0 {
		every = 2 * simtime.Second
	}
	ck := &StateCheckpointer{rt: rt, every: every}
	ck.take()
	ck.arm()
	return ck
}

func (ck *StateCheckpointer) arm() {
	ck.timer = ck.rt.Sched.After(ck.every, func() {
		ck.take()
		ck.arm()
	})
}

// Stop cancels the snapshot timer.
func (ck *StateCheckpointer) Stop() { ck.timer.Cancel() }

func (ck *StateCheckpointer) take() {
	snap := &stateSnapshot{
		at:        ck.rt.Sched.Now(),
		ops:       make(map[string]string),
		groups:    make(map[string]map[int]*state.Group),
		processed: make(map[string]uint64),
	}
	ck.rt.EachInstance(func(in *Instance) {
		if in.Dead() {
			// A corpse's empty store says nothing; leaving it out lets
			// lookups fall through to the older snapshot.
			return
		}
		name := in.Name()
		snap.order = append(snap.order, name)
		snap.ops[name] = in.Spec.Name
		snap.processed[name] = in.Processed
		if in.Spec.KeyedInput {
			snap.groups[name] = in.store.Snapshot()
		}
	})
	ck.snaps[1] = ck.snaps[0]
	ck.snaps[0] = snap
}

// Lookup finds the most recent snapshot copy of key group kg for the named
// instance of operator op. When the instance never held kg at a snapshot
// instant (the group migrated in after the newest snapshot), the search
// widens to the operator's other instances in deterministic order — the
// group's pre-migration host had it. The returned group is the checkpoint's
// copy; callers must Clone before installing it into a live store.
func (ck *StateCheckpointer) Lookup(op, name string, kg int) (*state.Group, bool) {
	for _, snap := range ck.snaps {
		if snap == nil {
			continue
		}
		if g, ok := snap.groups[name][kg]; ok {
			return g, true
		}
	}
	for _, snap := range ck.snaps {
		if snap == nil {
			continue
		}
		for _, other := range snap.order {
			if snap.ops[other] != op || other == name {
				continue
			}
			if g, ok := snap.groups[other][kg]; ok {
				return g, true
			}
		}
	}
	return nil, false
}

// ProcessedAt reports the instance's processed-record count at the most
// recent snapshot covering it (false when no snapshot saw the instance).
func (ck *StateCheckpointer) ProcessedAt(name string) (uint64, bool) {
	for _, snap := range ck.snaps {
		if snap == nil {
			continue
		}
		if n, ok := snap.processed[name]; ok {
			return n, true
		}
	}
	return 0, false
}
