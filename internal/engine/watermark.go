package engine

import (
	"math"
	"slices"

	"drrs/internal/simtime"
)

// wmUnset marks an input channel that has not delivered a watermark yet. It
// is below every real or seeded watermark (seeds are -1 and 1<<62).
const wmUnset = simtime.Time(math.MinInt64)

// wmSlots is an instance's per-channel watermarks, indexed by slot, with the
// aligned minimum kept incrementally so that taking a watermark costs O(1)
// whatever the fan-in. Every write goes through its methods.
//
// The minimum is over the set slots only. A write at or below it, or above
// it from a slot that was not at it, updates min and atMin in place; the
// slots are rescanned only when the last slot holding the minimum leaves it,
// by a raise or by a detach.
type wmSlots struct {
	v []simtime.Time
	// unset counts the slots still at wmUnset, and neg1 those holding -1.
	unset, neg1 int
	// min is the least set value and atMin how many set slots hold it;
	// atMin is 0 exactly when no slot is set, and min is then meaningless.
	min   simtime.Time
	atMin int
}

// add appends an unset slot.
func (w *wmSlots) add() {
	w.v = append(w.v, wmUnset)
	w.unset++
}

// set writes slot s.
func (w *wmSlots) set(s int, x simtime.Time) {
	old := w.v[s]
	if old == x {
		return
	}
	w.v[s] = x
	if x == -1 {
		w.neg1++
	}
	switch {
	case old == wmUnset:
		w.unset--
	case old == -1:
		w.neg1--
	}
	if old != wmUnset && old == w.min {
		if w.atMin--; w.atMin == 0 && x > old {
			w.rescan()
			return
		}
	}
	w.take(x)
}

// seed writes slot s only if it has never been written.
func (w *wmSlots) seed(s int, x simtime.Time) {
	if w.v[s] == wmUnset {
		w.set(s, x)
	}
}

// remove deletes slot s; the slots behind it move down one.
func (w *wmSlots) remove(s int) {
	old := w.v[s]
	w.v = slices.Delete(w.v, s, s+1)
	switch {
	case old == wmUnset:
		w.unset--
		return
	case old == -1:
		w.neg1--
	}
	if old == w.min {
		if w.atMin--; w.atMin == 0 {
			w.rescan()
		}
	}
}

// take counts a newly set value x into the minimum.
func (w *wmSlots) take(x simtime.Time) {
	switch {
	case w.atMin == 0 || x < w.min:
		w.min, w.atMin = x, 1
	case x == w.min:
		w.atMin++
	}
}

// rescan recomputes min and atMin from the slots.
func (w *wmSlots) rescan() {
	w.atMin = 0
	for _, x := range w.v {
		if x != wmUnset {
			w.take(x)
		}
	}
}

// aligned returns the aligned watermark, and false while some slot is unset.
//
// The aligned value is defined by the scan below, which uses -1 as its "none
// yet" sentinel: a slot holding -1 (AddInstance's seed) restarts the minimum
// at the slots behind it, a known defect (ROADMAP item 18) kept so runs stay
// byte-identical. Without a -1 slot the scan equals the true minimum, so it
// runs only while some slot holds -1 and w.min answers otherwise. An empty
// list aligns to -1, which never advances anything.
func (w *wmSlots) aligned() (simtime.Time, bool) {
	if w.unset > 0 {
		return 0, false
	}
	if w.neg1 == 0 && len(w.v) > 0 {
		return w.min, true
	}
	min := simtime.Time(-1)
	for _, x := range w.v {
		if min == -1 || x < min {
			min = x
		}
	}
	return min, true
}
