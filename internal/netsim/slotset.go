package netsim

import "math/bits"

// SlotSet is a dense bitset over input-channel slots (a channel's position in
// its receiver's input list). A receiver keeps two of equal size — channels
// with a non-empty inbox, and alignment-blocked channels — so its input
// handler finds the next admissible channel with find-next-set-bit instead of
// probing every channel.
type SlotSet []uint64

// Grow makes room for slots [0, n); new slots start clear.
func (s *SlotSet) Grow(n int) {
	for len(*s)<<6 < n {
		*s = append(*s, 0)
	}
}

// Set adds slot i.
func (s SlotSet) Set(i int) { s[i>>6] |= 1 << (i & 63) }

// Clear removes slot i.
func (s SlotSet) Clear(i int) { s[i>>6] &^= 1 << (i & 63) }

// Assign adds or removes slot i.
func (s SlotSet) Assign(i int, on bool) {
	if on {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Has reports whether slot i is in the set.
func (s SlotSet) Has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// NextAndNot returns the lowest slot in [from, to) that is in s and not in
// mask, or -1. mask must be at least as long as s up to slot to.
func (s SlotSet) NextAndNot(mask SlotSet, from, to int) int {
	if from >= to {
		return -1
	}
	w, last := from>>6, (to-1)>>6
	cur := s[w] &^ mask[w] &^ (1<<(from&63) - 1)
	for cur == 0 {
		if w++; w > last {
			return -1
		}
		cur = s[w] &^ mask[w]
	}
	if i := w<<6 + bits.TrailingZeros64(cur); i < to {
		return i
	}
	return -1
}
