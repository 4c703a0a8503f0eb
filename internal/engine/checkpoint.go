package engine

import (
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// stateSnapshot is one periodic out-of-band copy of every live instance's
// keyed state (plus progress counters), one entry per instance in
// EachInstance order.
type stateSnapshot struct {
	at        simtime.Time
	instances []instanceSnap
}

// instanceSnap is one instance's part of a snapshot. groups is nil for an
// instance without keyed input.
type instanceSnap struct {
	name      string
	op        string
	processed uint64
	groups    state.Snapshot
}

// instance returns the named instance's entry, or nil when the snapshot did
// not see it. Instance names are unique within one snapshot.
func (snap *stateSnapshot) instance(name string) *instanceSnap {
	for i := range snap.instances {
		if snap.instances[i].name == name {
			return &snap.instances[i]
		}
	}
	return nil
}

// StateCheckpointer takes periodic frozen copies of all keyed state for
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
	snap := &stateSnapshot{at: ck.rt.Sched.Now()}
	ck.rt.EachInstance(func(in *Instance) {
		if in.Dead() {
			// A corpse's empty store says nothing; leaving it out lets
			// lookups fall through to the older snapshot.
			return
		}
		is := instanceSnap{name: in.Name(), op: in.Spec.Name, processed: in.Processed}
		if in.Spec.KeyedInput {
			is.groups = in.store.Snapshot()
		}
		snap.instances = append(snap.instances, is)
	})
	ck.snaps[1] = ck.snaps[0]
	ck.snaps[0] = snap
}

// Lookup finds the most recent snapshot copy of key group kg for the named
// instance of operator op. When the instance never held kg at a snapshot
// instant (the group migrated in after the newest snapshot), the search
// widens to the operator's other instances in deterministic order — the
// group's pre-migration host had it. The returned group is the checkpoint's
// frozen copy; callers Thaw it to install it into a live store. Lookup runs
// only on recovery, so it scans.
func (ck *StateCheckpointer) Lookup(op, name string, kg int) (*state.FrozenGroup, bool) {
	for _, snap := range ck.snaps {
		if snap == nil {
			continue
		}
		if is := snap.instance(name); is != nil {
			if g, ok := is.groups[kg]; ok {
				return g, true
			}
		}
	}
	for _, snap := range ck.snaps {
		if snap == nil {
			continue
		}
		for i := range snap.instances {
			is := &snap.instances[i]
			if is.op != op || is.name == name {
				continue
			}
			if g, ok := is.groups[kg]; ok {
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
		if is := snap.instance(name); is != nil {
			return is.processed, true
		}
	}
	return 0, false
}
