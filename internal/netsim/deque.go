package netsim

// dequeSeg is the number of entries in one Deque segment. With its link, a
// segment of 16-byte entries (the source side lane's interfaces) fits the
// 1 KB allocation size class and one of 32-byte entries (the engine's
// source backlog) the 2 KB class, at 2 024 bytes; 64 entries would spill
// both into the next.
const dequeSeg = 63

// segment is one fixed block of a Deque, linked to the next-newer block (or,
// on a SegChain, to the next free block).
type segment[T any] struct {
	buf  [dequeSeg]T
	next *segment[T]
}

// SegChain is a free list of emptied Deque segments. Deques that share a
// chain grow from it and retire to it, so one that drains while another
// rises allocates nothing: a run's deques together allocate their peak
// combined length in segments, once.
type SegChain[T any] struct {
	free *segment[T]
}

// get unlinks a free segment, or allocates one when the chain is empty.
func (c *SegChain[T]) get() *segment[T] {
	s := c.free
	if s == nil {
		return new(segment[T])
	}
	c.free, s.next = s.next, nil
	return s
}

// put links an emptied segment onto the chain.
func (c *SegChain[T]) put(s *segment[T]) {
	s.next = c.free
	c.free = s
}

// Deque is a FIFO queue with positional peeking (the engine's source ingest
// backlog), kept as a linked list of fixed segments of dequeSeg entries.
// Growing takes a segment from the deque's SegChain and never copies queued
// entries; a segment emptied at the front goes back to the chain. A deque
// built by NewDeque shares the given chain; a zero Deque makes its own on
// first growth. PushBack, PopFront and At(0) are O(1); At(i) walks
// i/dequeSeg segments.
type Deque[T any] struct {
	front, back *segment[T]
	head        int // index of the front entry in front.buf
	tail        int // index past the last entry in back.buf
	n           int
	chain       *SegChain[T]
}

// NewDeque returns an empty deque that grows from and retires to c.
func NewDeque[T any](c *SegChain[T]) Deque[T] { return Deque[T]{chain: c} }

// Len reports the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	if d.back == nil || d.tail == dequeSeg {
		if d.chain == nil {
			d.chain = new(SegChain[T])
		}
		s := d.chain.get()
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
		d.chain.put(s)
	case d.head == dequeSeg:
		d.front, d.head = s.next, 0
		d.chain.put(s)
	}
	return v
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
