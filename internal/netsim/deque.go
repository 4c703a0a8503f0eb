package netsim

// dequeSeg is the number of entries in one Deque segment.
const dequeSeg = 64

// segment is one fixed block of a Deque, linked to the next-newer block.
type segment[T any] struct {
	buf  [dequeSeg]T
	next *segment[T]
}

// Deque is a FIFO queue with positional peeking (the engine's source ingest
// backlog), kept as a linked list of fixed segments of dequeSeg entries.
// Growing adds a segment and never copies queued entries; a segment emptied
// at the front is kept as the one spare for the next growth, so a backlog
// that rises and falls within a segment's worth allocates nothing. PushBack,
// PopFront and At(0) are O(1); At(i) walks i/dequeSeg segments.
type Deque[T any] struct {
	front, back *segment[T]
	head        int // index of the front entry in front.buf
	tail        int // index past the last entry in back.buf
	n           int
	spare       *segment[T]
}

// Len reports the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	if d.back == nil || d.tail == dequeSeg {
		s := d.spare
		if s != nil {
			d.spare = nil
		} else {
			s = new(segment[T])
		}
		if d.back == nil {
			d.front = s
		} else {
			d.back.next = s
		}
		d.back, d.tail = s, 0
	}
	d.back.buf[d.tail] = v
	d.tail++
	d.n++
}

// PopFront removes and returns the head. It panics on an empty deque.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("netsim: PopFront on empty deque")
	}
	s := d.front
	v := s.buf[d.head]
	var zero T
	s.buf[d.head] = zero
	d.head++
	d.n--
	switch {
	case d.n == 0:
		d.front, d.back, d.head, d.tail = nil, nil, 0, 0
		d.retire(s)
	case d.head == dequeSeg:
		d.front, d.head = s.next, 0
		d.retire(s)
	}
	return v
}

// retire keeps an emptied segment as the spare, or drops it when there is
// one already.
func (d *Deque[T]) retire(s *segment[T]) {
	if d.spare == nil {
		s.next = nil
		d.spare = s
	}
}

// At returns the element at depth i (0 = head) without removing it.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("netsim: deque index out of range")
	}
	s, j := d.front, d.head+i
	for j >= dequeSeg {
		s, j = s.next, j-dequeSeg
	}
	return s.buf[j]
}
