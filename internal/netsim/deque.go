package netsim

// Deque is a slice-backed FIFO queue with positional peeking (the engine's
// source ingest backlog). Its capacity is zero or a power of two, so a
// depth maps to a slot with a mask; push and pop are amortized O(1).
type Deque[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

func (d *Deque[T]) grow() {
	if d.n < len(d.buf) {
		return
	}
	newCap := len(d.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	nb := make([]T, newCap)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	d.grow()
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PopFront removes and returns the head. It panics on an empty deque.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("netsim: PopFront on empty deque")
	}
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// At returns the element at depth i (0 = head) without removing it.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("netsim: deque index out of range")
	}
	return d.buf[(d.head+i)&(len(d.buf)-1)]
}
