package netsim

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestDequeSegmentBoundary pushes and pops across the boundary between two
// segments and peeks into the later one from the head.
func TestDequeSegmentBoundary(t *testing.T) {
	var d Deque[int]
	for i := 0; i < dequeSeg+10; i++ {
		d.PushBack(i)
	}
	if d.front == d.back {
		t.Fatalf("%d entries fit in one segment of %d", d.Len(), dequeSeg)
	}
	for i := 0; i < d.Len(); i++ {
		if got := d.At(i); got != i {
			t.Fatalf("At(%d) = %d before any pop", i, got)
		}
	}
	for i := 0; i < dequeSeg-1; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	// The head is the last entry of the first segment; At(1) is the first
	// of the second.
	if d.At(0) != dequeSeg-1 || d.At(1) != dequeSeg {
		t.Fatalf("At(0), At(1) = %d, %d across the boundary", d.At(0), d.At(1))
	}
	if got := d.PopFront(); got != dequeSeg-1 {
		t.Fatalf("pop across the boundary = %d", got)
	}
	if d.front != d.back || d.head != 0 || d.chain.free == nil {
		t.Fatal("the emptied first segment was not retired to the chain")
	}
	for i := dequeSeg; i < dequeSeg+10; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	if d.Len() != 0 || d.front != nil || d.back != nil {
		t.Fatal("an empty deque still links segments")
	}
}

// TestDequeAtLaterSegment peeks at every depth of a deque four segments
// long whose head sits in the middle of the first.
func TestDequeAtLaterSegment(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 4*dequeSeg; i++ {
		d.PushBack(i)
	}
	for i := 0; i < dequeSeg/2; i++ {
		d.PopFront()
	}
	for i := 0; i < d.Len(); i++ {
		if got, want := d.At(i), dequeSeg/2+i; got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestDequeReuseAfterEmpty: a deque emptied and refilled within one segment
// reuses the segment its chain got back and allocates nothing, and a pop
// clears the slot it empties so the queue keeps no popped value alive.
func TestDequeReuseAfterEmpty(t *testing.T) {
	var d Deque[*int]
	v := new(int)
	cycle := func() {
		for i := 0; i < dequeSeg; i++ {
			d.PushBack(v)
		}
		for d.Len() > 0 {
			if d.PopFront() != v {
				panic("popped a different value")
			}
		}
	}
	cycle()
	spare := d.chain.free
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("filling and emptying one segment allocates %.2f objects, want 0", avg)
	}
	if d.chain.free != spare || spare.next != nil {
		t.Fatal("the chain's one free segment was replaced")
	}
	for i, p := range spare.buf {
		if p != nil {
			t.Fatalf("slot %d of the emptied segment still holds a value", i)
		}
	}
}

// FuzzDequeOps runs two Deques that share one SegChain, each beside its own
// slice model, through the same operations, and requires after each the
// same length and the same element at every depth, and that no segment is
// both queued in a deque and free on the chain. One opcode byte and one
// argument byte per operation; the argument's low bit picks the deque:
//
//	0  push 1 to 130 values (so a single push can cross two segments)
//	1  pop up to 130 values
//	2  At(argument mod length)
//	3  pop every value
func FuzzDequeOps(f *testing.F) {
	f.Add([]byte{0, 70, 1, 60, 2, 5, 0, 129, 1, 129, 3, 0, 0, 3})
	f.Add([]byte{0, 63, 1, 63, 0, 0, 1, 0, 0, 64, 2, 63, 1, 1, 2, 0})
	f.Add([]byte{0, 128, 0, 127, 3, 0, 0, 129, 1, 64, 3, 1, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var chain SegChain[int]
		ds := [2]Deque[int]{NewDeque(&chain), NewDeque(&chain)}
		var models [2][]int
		next := 0
		for step := 0; step < 64 && len(data) >= 2; step++ {
			op, arg := data[0], int(data[1])
			data = data[2:]
			d, model := &ds[arg&1], &models[arg&1]
			switch op % 4 {
			case 0:
				for i := 0; i <= arg%130; i++ {
					d.PushBack(next)
					*model = append(*model, next)
					next++
				}
			case 1:
				for i := 0; i <= arg%130 && len(*model) > 0; i++ {
					if got := d.PopFront(); got != (*model)[0] {
						t.Fatalf("step %d: pop %d, model %d", step, got, (*model)[0])
					}
					*model = (*model)[1:]
				}
			case 2:
				if len(*model) > 0 {
					i := arg % len(*model)
					if got := d.At(i); got != (*model)[i] {
						t.Fatalf("step %d: At(%d) = %d, model %d", step, i, got, (*model)[i])
					}
				}
			case 3:
				for len(*model) > 0 {
					if got := d.PopFront(); got != (*model)[0] {
						t.Fatalf("step %d: pop %d, model %d", step, got, (*model)[0])
					}
					*model = (*model)[1:]
				}
			}
			for k := range ds {
				if ds[k].Len() != len(models[k]) {
					t.Fatalf("step %d: deque %d length %d, model %d", step, k, ds[k].Len(), len(models[k]))
				}
				for i, v := range models[k] {
					if got := ds[k].At(i); got != v {
						t.Fatalf("step %d: deque %d At(%d) = %d, model %d", step, k, i, got, v)
					}
				}
			}
			seen := make(map[*segment[int]]string)
			mark := func(s *segment[int], where string) {
				if prev, ok := seen[s]; ok {
					t.Fatalf("step %d: a segment is both %s and %s", step, prev, where)
				}
				seen[s] = where
			}
			for k := range ds {
				for s := ds[k].front; s != nil; s = s.next {
					mark(s, fmt.Sprintf("queued in deque %d", k))
				}
			}
			for s := chain.free; s != nil; s = s.next {
				mark(s, "free")
			}
		}
	})
}

// TestDequeSegmentSizeClass pins dequeSeg against the allocation size
// classes the dequeSeg comment names: with its link, a segment of 16-byte
// entries (the engine's side lane) fits 1 KB and one of 32-byte entries
// (the engine's source backlog) 2 KB, and one more entry would spill
// either into the next class.
func TestDequeSegmentSizeClass(t *testing.T) {
	for _, c := range []struct {
		size, class uintptr
	}{
		{unsafe.Sizeof(segment[any]{}), 1024},
		{unsafe.Sizeof(segment[[4]uint64]{}), 2048},
	} {
		if c.size > c.class {
			t.Errorf("a %d-byte segment overflows the %d-byte class", c.size, c.class)
		}
		entry := (c.size - unsafe.Sizeof(uintptr(0))) / dequeSeg
		if c.size+entry <= c.class {
			t.Errorf("a %d-byte segment leaves room in the %d-byte class for entry %d", c.size, c.class, dequeSeg+1)
		}
	}
}
