// Package simtime provides the virtual clock and event scheduler that the
// whole simulation runs on.
//
// Everything in this repository — record transmission, operator processing,
// state migration, scaling-signal propagation — is an event scheduled on a
// single Scheduler. Time is virtual: a "600 second" experiment is an event
// count, not wall time, so runs are fast and fully deterministic. Events at
// the same instant fire in scheduling order (a monotone sequence number
// breaks ties), which makes every experiment replayable bit-for-bit.
//
// The scheduler is built for the simulation hot path: events live in a
// free-list pool (no per-event heap allocation in steady state), and almost
// every event is due within a few milliseconds, so the time ordering is a
// timing wheel — one FIFO list per microsecond instant, 2^15 of them, found
// through an occupancy bitmap — with a pooled 4-ary heap, indexed by pool
// slot, for the rare events due 32.768 ms or more ahead. The wheel slot for
// the current instant serves the After(0, ...) wake pattern without a
// comparison, and NothingDueNow reads it in O(1) so that a callback whose
// last act is a zero-delay wake can run the woken work inline when that
// work would have been the very next event anyway. Cancelling a wheel event
// unlinks it from its slot at once, so the wheel holds live events only: a
// slot's occupancy bit means an event is due at that instant, and finding
// the next instant is a pure bitmap scan.
package simtime

import (
	"fmt"
	"math/bits"
)

// Time is an instant in virtual time, in microseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Ms constructs a Duration from milliseconds.
func Ms(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Sec constructs a Duration from seconds.
func Sec(s float64) Duration { return Duration(s * float64(Second)) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between t and earlier instant o.
func (t Time) Sub(o Time) Duration { return Duration(t - o) }

// Millis reports t in (fractional) milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Millis reports d in (fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration as milliseconds.
func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Millis()) }

// Wheel geometry: one slot per microsecond instant, 2^15 slots (32.768 ms).
// An event goes on the wheel iff it is due less than wheelSlots µs after
// now when it is scheduled; anything further ahead goes on the heap.
const (
	wheelSlots = 1 << 15
	wheelMask  = wheelSlots - 1
)

// Event placement states (the event.where field): non-negative values are
// heap positions.
const (
	whereFree  int32 = -1 // in the free list (or fired)
	whereWheel int32 = -2 // queued in a wheel slot
)

// event is one pooled scheduler entry. Events are recycled through a free
// list; the generation counter invalidates stale Timer handles on reuse.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint32
	where int32
	next  int32 // on the wheel: the next entry of the slot's circular list
}

// Timer is a handle to a scheduled event. The zero Timer is valid and
// behaves as an already-fired event. Cancelling a fired or already cancelled
// timer is a no-op.
type Timer struct {
	s   *Scheduler
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Reports whether the event was still
// pending. Cancellation removes the event immediately: by index from the
// heap, or by unlinking it from its wheel slot's list, which walks the
// events due at the same instant. Pending() never counts cancelled events.
func (t Timer) Cancel() bool {
	if t.s == nil {
		return false
	}
	return t.s.cancel(t.idx, t.gen)
}

// Pending reports whether the timer's event has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.pool[t.idx]
	return ev.gen == t.gen && ev.where != whereFree
}

// Scheduler is a deterministic discrete-event scheduler.
//
// It is not safe for concurrent use; each simulation is single-threaded by
// design (the parallel scenario runner gives every run its own Scheduler).
type Scheduler struct {
	now     Time
	seq     uint64
	stepped uint64
	live    int // scheduled and neither fired nor cancelled

	pool []event
	free []int32

	// heap is a 4-ary min-heap of pool indices ordered by (at, seq), holding
	// only events due wheelSlots µs or more ahead when scheduled;
	// pool[i].where tracks each event's heap position for O(log n) removal.
	heap []int32

	// The wheel holds every other event. Since now never decreases, each
	// live wheel entry lies in [now, now+wheelSlots), so a slot (at mod
	// wheelSlots) holds one instant only. tails[k] is the last entry of
	// slot k's circular list (its next is the head), valid iff bit k of
	// occupied is set; entries are appended in scheduling order, so every
	// slot is in seq order. wheeled counts entries; all of them are live.
	// The two arrays are separate allocations so that each fills whole
	// pages or a size class: 132 KiB per Scheduler.
	tails    *[wheelSlots]int32
	occupied *[wheelSlots / 64]uint64
	wheeled  int
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{tails: new([wheelSlots]int32), occupied: new([wheelSlots / 64]uint64)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Scheduler) Processed() uint64 { return s.stepped }

// Pending reports how many events are scheduled and still runnable.
// Cancelled events never count: cancellation removes the event immediately.
func (s *Scheduler) Pending() int { return s.live }

// NothingDueNow reports whether no event is due at the current instant: the
// current instant's wheel slot is unoccupied and the heap's earliest event
// is later than now. The wheel holds no cancelled entries, so the answer is
// exact: it is false iff a live event is due now. When
// it holds inside a callback, an event scheduled at now by After(0, ...)
// would be the next to fire, so the caller may run it inline instead: the
// (at, seq) order of every other event is unchanged, and the skipped
// sequence number is never observable.
func (s *Scheduler) NothingDueNow() bool {
	k := int(s.now) & wheelMask
	if s.occupied[k>>6]&(1<<(k&63)) != 0 {
		return false
	}
	return len(s.heap) == 0 || s.pool[s.heap[0]].at > s.now
}

// alloc takes an event slot from the free list (or grows the pool) and
// stamps it with the next sequence number.
func (s *Scheduler) alloc(at Time, fn func()) int32 {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.pool = append(s.pool, event{where: whereFree})
		i = int32(len(s.pool) - 1)
	}
	ev := &s.pool[i]
	ev.at = at
	ev.fn = fn
	ev.seq = s.seq
	s.seq++
	return i
}

// release returns a slot to the free list, invalidating outstanding Timers.
func (s *Scheduler) release(i int32) {
	ev := &s.pool[i]
	ev.fn = nil
	ev.where = whereFree
	ev.gen++
	s.free = append(s.free, i)
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// always indicates a simulation bug. Events due within wheelSlots µs go on
// the wheel, later ones on the heap.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, s.now))
	}
	i := s.alloc(t, fn)
	s.live++
	if t-s.now < wheelSlots {
		s.wheelPush(i)
	} else {
		s.heapPush(i)
	}
	return Timer{s: s, idx: i, gen: s.pool[i].gen}
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

func (s *Scheduler) cancel(idx int32, gen uint32) bool {
	ev := &s.pool[idx]
	if ev.gen != gen {
		return false
	}
	switch {
	case ev.where >= 0:
		s.heapRemoveAt(int(ev.where))
		s.release(idx)
		s.live--
		return true
	case ev.where == whereWheel:
		s.wheelUnlink(idx)
		s.release(idx)
		s.live--
		return true
	default:
		return false
	}
}

// Step fires the next event. It reports false when no runnable event remains.
func (s *Scheduler) Step() bool {
	at, ok := s.nextAt()
	if !ok {
		return false
	}
	s.now = at
	s.fire()
	return true
}

// fire runs the first event due now; nextAt must have reported now.
//
// Ordering: a heap event due now was scheduled at least wheelSlots µs
// before now, and every wheel event due now was scheduled later than that,
// so heap events carry the smaller sequence numbers and fire first; then
// now's slot drains FIFO, which is seq order. Firing is therefore exactly
// (at, seq) order.
func (s *Scheduler) fire() {
	var i int32
	if len(s.heap) > 0 && s.pool[s.heap[0]].at == s.now {
		i = s.heapPopMin()
	} else {
		i = s.wheelPop(int(s.now) & wheelMask)
	}
	fn := s.pool[i].fn
	s.release(i)
	s.live--
	s.stepped++
	fn()
}

// nextAt reports the instant of the next runnable event: the earlier of the
// wheel's first occupied slot and the heap top.
func (s *Scheduler) nextAt() (Time, bool) {
	at, ok := s.wheelNext()
	if len(s.heap) > 0 {
		if h := s.pool[s.heap[0]].at; !ok || h < at {
			return h, true
		}
	}
	return at, ok
}

// RunUntil fires events until the queue is exhausted or the next event lies
// beyond t. The clock is left at min(t, time of last fired event), never
// before its current value.
func (s *Scheduler) RunUntil(t Time) {
	for {
		at, ok := s.nextAt()
		if !ok || at > t {
			break
		}
		s.now = at
		s.fire()
	}
	if s.now < t {
		s.now = t
	}
}

// Run fires events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// --- timing wheel ---

// wheelPush appends event i to the tail of its slot.
func (s *Scheduler) wheelPush(i int32) {
	k := int(s.pool[i].at) & wheelMask
	s.pool[i].where = whereWheel
	if s.occupied[k>>6]&(1<<(k&63)) == 0 {
		s.pool[i].next = i
		s.occupied[k>>6] |= 1 << (k & 63)
	} else {
		tail := s.tails[k]
		s.pool[i].next = s.pool[tail].next
		s.pool[tail].next = i
	}
	s.tails[k] = i
	s.wheeled++
}

// wheelPop unlinks and returns the head of occupied slot k.
func (s *Scheduler) wheelPop(k int) int32 {
	tail := s.tails[k]
	head := s.pool[tail].next
	if head == tail {
		s.occupied[k>>6] &^= 1 << (k & 63)
	} else {
		s.pool[tail].next = s.pool[head].next
	}
	s.wheeled--
	return head
}

// wheelUnlink removes queued event i from its slot's circular list, walking
// from the tail to i's predecessor.
func (s *Scheduler) wheelUnlink(i int32) {
	k := int(s.pool[i].at) & wheelMask
	prev := s.tails[k]
	for s.pool[prev].next != i {
		prev = s.pool[prev].next
	}
	if prev == i { // i was the slot's only entry
		s.occupied[k>>6] &^= 1 << (k & 63)
	} else {
		s.pool[prev].next = s.pool[i].next
		if s.tails[k] == i {
			s.tails[k] = prev
		}
	}
	s.wheeled--
}

// wheelNext reports the instant of the first occupied slot at or after
// now's, in wrap-around order. Every wheel entry is live, so the bitmap
// alone answers.
func (s *Scheduler) wheelNext() (Time, bool) {
	if s.wheeled == 0 {
		return 0, false
	}
	base := int(s.now) & wheelMask
	w := base >> 6
	word := s.occupied[w] &^ (1<<(base&63) - 1)
	// The first word is read twice: masked above, then whole after the wrap
	// (its bits from base on are empty by then).
	for n := 0; n <= len(s.occupied); n++ {
		if word != 0 {
			k := w<<6 | bits.TrailingZeros64(word)
			return s.now + Time((k-base)&wheelMask), true
		}
		w = (w + 1) % len(s.occupied)
		word = s.occupied[w]
	}
	return 0, false
}

// --- 4-ary indexed heap ---

// less orders events by (at, seq).
func (s *Scheduler) less(a, b int32) bool {
	ea, eb := &s.pool[a], &s.pool[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (s *Scheduler) heapPush(i int32) {
	s.heap = append(s.heap, i)
	pos := len(s.heap) - 1
	s.pool[i].where = int32(pos)
	s.siftUp(pos)
}

func (s *Scheduler) heapPopMin() int32 {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.pool[s.heap[0]].where = 0
		s.siftDown(0)
	}
	return top
}

// heapRemoveAt removes the event at heap position pos (indexed cancel).
func (s *Scheduler) heapRemoveAt(pos int) {
	last := len(s.heap) - 1
	s.heap[pos] = s.heap[last]
	s.heap = s.heap[:last]
	if pos < last {
		s.pool[s.heap[pos]].where = int32(pos)
		s.siftDown(pos)
		s.siftUp(pos)
	}
}

func (s *Scheduler) siftUp(pos int) {
	i := s.heap[pos]
	for pos > 0 {
		parent := (pos - 1) >> 2
		p := s.heap[parent]
		if !s.less(i, p) {
			break
		}
		s.heap[pos] = p
		s.pool[p].where = int32(pos)
		pos = parent
	}
	s.heap[pos] = i
	s.pool[i].where = int32(pos)
}

func (s *Scheduler) siftDown(pos int) {
	i := s.heap[pos]
	n := len(s.heap)
	for {
		first := pos<<2 + 1 // first child
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		b := s.heap[best]
		if !s.less(b, i) {
			break
		}
		s.heap[pos] = b
		s.pool[b].where = int32(pos)
		pos = best
	}
	s.heap[pos] = i
	s.pool[i].where = int32(pos)
}
