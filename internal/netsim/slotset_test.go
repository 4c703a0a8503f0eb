package netsim

import (
	"testing"

	"drrs/internal/simtime"
)

// TestSlotSetNextAndNotWordBoundaries pins find-next around the 64-bit word
// edges, where an off-by-one would skip or repeat a channel.
func TestSlotSetNextAndNotWordBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		set      []int
		mask     []int
		from, to int
		want     int
	}{
		{"empty", nil, nil, 0, 200, -1},
		{"first bit", []int{0}, nil, 0, 200, 0},
		{"from is inclusive", []int{5}, nil, 5, 200, 5},
		{"below from is skipped", []int{5}, nil, 6, 200, -1},
		{"to is exclusive", []int{63}, nil, 0, 63, -1},
		{"last bit of word 0", []int{63}, nil, 0, 64, 63},
		{"first bit of word 1", []int{64}, nil, 0, 65, 64},
		{"to cuts inside word 1", []int{64}, nil, 0, 64, -1},
		{"from at word edge", []int{63, 64}, nil, 64, 200, 64},
		{"from on last bit of a word", []int{63, 64}, nil, 63, 200, 63},
		{"skips an empty word", []int{3, 130}, nil, 4, 200, 130},
		{"lowest of several", []int{70, 65, 127}, nil, 64, 200, 65},
		{"masked bit is skipped", []int{10, 64}, []int{10}, 0, 200, 64},
		{"all masked", []int{10, 64}, []int{10, 64}, 0, 200, -1},
		{"mask below from is irrelevant", []int{70}, []int{3}, 64, 200, 70},
		{"empty range", []int{7}, nil, 7, 7, -1},
		{"inverted range", []int{7}, nil, 9, 7, -1},
		{"last slot of the set", []int{199}, nil, 0, 200, 199},
		{"bit past to in the same word", []int{199}, nil, 192, 199, -1},
	}
	for _, c := range cases {
		var set, mask SlotSet
		set.Grow(200)
		mask.Grow(200)
		for _, i := range c.set {
			set.Set(i)
		}
		for _, i := range c.mask {
			mask.Set(i)
		}
		if got := set.NextAndNot(mask, c.from, c.to); got != c.want {
			t.Errorf("%s: NextAndNot(%d, %d) = %d, want %d", c.name, c.from, c.to, got, c.want)
		}
	}
}

func TestSlotSetGrowKeepsBitsAndClearsNew(t *testing.T) {
	var s SlotSet
	s.Grow(1)
	s.Set(0)
	s.Grow(64)
	s.Set(63)
	s.Grow(65)
	if len(s) != 2 || !s.Has(0) || !s.Has(63) || s.Has(64) {
		t.Fatalf("after growth: %b", s)
	}
	s.Assign(64, true)
	s.Assign(0, false)
	if s.Has(0) || !s.Has(64) {
		t.Fatalf("after assign: %b", s)
	}
}

// TestEdgeKeepsReadyBit walks the four places an inbox changes and checks the
// receiver's ready set after each, then rebinding and unbinding.
func TestEdgeKeepsReadyBit(t *testing.T) {
	s := simtime.NewScheduler()
	e := newTestEdge(s, EdgeConfig{Latency: simtime.Ms(1)})
	if e.Slot() != -1 {
		t.Fatalf("unbound edge has slot %d", e.Slot())
	}
	var ready SlotSet
	ready.Grow(70)
	e.BindInput(&ready, 65)
	check := func(when string, want bool) {
		t.Helper()
		if ready.Has(65) != want {
			t.Fatalf("%s: ready bit %v, inbox %d", when, ready.Has(65), e.InboxLen())
		}
	}
	check("bound empty", false)
	e.TrySend(rec(1, 64))
	check("in flight", false)
	s.Run()
	check("delivered", true)
	e.TrySend(rec(2, 64))
	e.TrySend(rec(3, 64))
	s.Run()
	m := e.PopInbox()
	check("popped one of three", true)
	e.RemoveInboxAt(1)
	check("removed at depth", true)
	e.PopInbox()
	check("drained", false)
	e.PushFrontInbox(m)
	check("pushed back", true)

	// Renumbering moves the bit; the old one is the caller's to clear.
	e.BindInput(&ready, 3)
	if !ready.Has(3) || e.Slot() != 3 {
		t.Fatalf("rebind: bit %v slot %d", ready.Has(3), e.Slot())
	}
	e.UnbindInput()
	e.PopInbox()
	if !ready.Has(3) || e.Slot() != -1 {
		t.Fatalf("an unbound edge must leave the set alone: bit %v slot %d", ready.Has(3), e.Slot())
	}
}
