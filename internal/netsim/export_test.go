package netsim

// Drain removes and returns all elements in order.
func (d *Deque[T]) Drain() []T {
	out := make([]T, 0, d.n)
	for d.n > 0 {
		out = append(out, d.PopFront())
	}
	return out
}

// InFlight reports messages currently on the link.
func (e *Edge) InFlight() int { return e.linkEnd - e.inEnd }
