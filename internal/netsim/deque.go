package netsim

// Deque is a slice-backed double-ended queue used for edge outboxes and
// inboxes. It supports the positional access Record Scheduling needs
// (peeking and removing at arbitrary depth) while keeping push/pop amortized
// O(1).
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
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	d.grow()
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

// PushFront prepends v at the head.
func (d *Deque[T]) PushFront(v T) {
	d.grow()
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = v
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
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return v
}

// At returns the element at depth i (0 = head) without removing it.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("netsim: deque index out of range")
	}
	return d.buf[(d.head+i)%len(d.buf)]
}

// RemoveAt removes and returns the element at depth i, preserving the order
// of the others.
func (d *Deque[T]) RemoveAt(i int) T {
	if i < 0 || i >= d.n {
		panic("netsim: deque remove out of range")
	}
	v := d.At(i)
	// Shift the shorter side.
	if i < d.n-i-1 {
		for j := i; j > 0; j-- {
			d.buf[(d.head+j)%len(d.buf)] = d.buf[(d.head+j-1)%len(d.buf)]
		}
		var zero T
		d.buf[d.head] = zero
		d.head = (d.head + 1) % len(d.buf)
	} else {
		for j := i; j < d.n-1; j++ {
			d.buf[(d.head+j)%len(d.buf)] = d.buf[(d.head+j+1)%len(d.buf)]
		}
		var zero T
		d.buf[(d.head+d.n-1)%len(d.buf)] = zero
	}
	d.n--
	return v
}

// InsertAt inserts v at depth i (0 = front, Len() = back).
func (d *Deque[T]) InsertAt(i int, v T) {
	if i < 0 || i > d.n {
		panic("netsim: deque insert out of range")
	}
	d.PushBack(v) // make room
	for j := d.n - 1; j > i; j-- {
		d.buf[(d.head+j)%len(d.buf)] = d.buf[(d.head+j-1)%len(d.buf)]
	}
	d.buf[(d.head+i)%len(d.buf)] = v
}
