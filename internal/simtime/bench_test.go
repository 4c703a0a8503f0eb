package simtime

import (
	"strings"
	"testing"
)

// BenchmarkScheduler measures the scheduler's core cycle: schedule a future
// event, fire it, repeat. It keeps at most four events pending, a pattern
// the branch predictor learns, so its ns/op no longer predicts whole runs:
// it read the timing wheel as no faster than the 4-ary heap it replaced
// while whole simulator runs got 10–27 % faster. BenchmarkSchedulerHold is
// the realistic mix; this one stays as an allocation guard.
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Duration(i%97+1), fn)
		if i%4 == 3 {
			for s.Step() {
			}
		}
	}
	s.Run()
}

// BenchmarkSchedulerSameInstant measures the After(0, ...) wake pattern,
// served from the wheel slot of the current instant.
func BenchmarkSchedulerSameInstant(b *testing.B) {
	s := NewScheduler()
	n := 0
	var fn func()
	fn = func() {
		if n < b.N {
			n++
			s.After(0, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(0, fn)
	s.Run()
}

// BenchmarkSchedulerCancel measures cancellation on both structures: every
// other event lands on the wheel (unlinked from its slot's list) and the rest
// on the heap (indexed removal).
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(Duration(i%1024+1+i%2*wheelSlots), fn)
		t.Cancel()
		if i%1024 == 1023 {
			s.Run() // drain nothing; keep the clock moving
		}
	}
}

// BenchmarkSchedulerMixed stresses many pending timers with interleaved
// scheduling, firing, and cancellation.
func BenchmarkSchedulerMixed(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	var timers []Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers = append(timers, s.After(Duration(i*7%1000+1), fn))
		if i%3 == 0 && len(timers) > 0 {
			timers[len(timers)-1].Cancel()
			timers = timers[:len(timers)-1]
		}
		if i%64 == 63 {
			s.RunUntil(s.Now().Add(100))
			timers = timers[:0]
		}
	}
	s.Run()
}

// TestSchedulerSteadyStateAllocs is the CI guard for the pooled scheduler:
// once the pool and heap are warm, the schedule→fire cycle must not allocate.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the pool and the wheel.
	for i := 0; i < 1024; i++ {
		s.After(Duration(i%13), fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		s.After(5, fn)
		s.After(0, fn)
		s.After(wheelSlots, fn)
		tm := s.After(9, fn)
		tm.Cancel()
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("scheduler steady state allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestSchedulerPendingExcludesCancelled pins the new Pending contract:
// cancelled events leave the count immediately (the old implementation kept
// lazy tombstones and over-counted).
func TestSchedulerPendingExcludesCancelled(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	a := s.At(10, fn)
	b := s.At(wheelSlots+20, fn) // far enough ahead for the heap
	c := s.At(30, fn)
	if s.Pending() != 3 {
		t.Fatalf("pending %d, want 3", s.Pending())
	}
	if !b.Cancel() {
		t.Fatal("cancel failed")
	}
	if s.Pending() != 2 {
		t.Fatalf("pending after heap cancel %d, want 2", s.Pending())
	}
	// Wheel events count and un-count the same way.
	d := s.After(0, fn)
	if s.Pending() != 3 {
		t.Fatalf("pending with wheel event %d, want 3", s.Pending())
	}
	if !d.Cancel() {
		t.Fatal("wheel cancel failed")
	}
	if s.Pending() != 2 {
		t.Fatalf("pending after wheel cancel %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending after run %d, want 0", s.Pending())
	}
	if a.Pending() || c.Pending() {
		t.Fatal("fired timers still pending")
	}
	if s.Processed() != 2 {
		t.Fatalf("processed %d, want 2 (cancelled events must not fire)", s.Processed())
	}
}

// TestSchedulerCancelReuse exercises slot reuse: a stale Timer for a fired
// event must not cancel the event that recycled its pool slot.
func TestSchedulerCancelReuse(t *testing.T) {
	s := NewScheduler()
	var fired int
	old := s.At(1, func() { fired++ })
	s.Run()
	// The slot is free now; the next event reuses it.
	nu := s.At(2, func() { fired += 10 })
	if old.Cancel() {
		t.Fatal("stale timer cancelled a recycled event")
	}
	if !nu.Pending() {
		t.Fatal("new event should be pending")
	}
	s.Run()
	if fired != 11 {
		t.Fatalf("fired %d, want 11", fired)
	}
}

// TestSchedulerHeapLaneOrdering pins the tie-break at one instant between
// events scheduled before the clock reaches it and events scheduled during
// it: scheduling order wins.
func TestSchedulerHeapLaneOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	// seq 0 and seq 2 are scheduled for 10 at t=0, seq 3 at t=5 (by seq 1)
	// and seq 4 at t=10 (by seq 2).
	s.At(10, func() { got = append(got, 1) })
	s.At(5, func() {
		s.At(10, func() { got = append(got, 2) })
	})
	s.At(10, func() {
		s.After(0, func() { got = append(got, 4) })
		got = append(got, 3)
	})
	s.Run()
	// At t=10: seq 0 → "1", seq 2 → "3" (queues "4"), seq 3 → "2", seq 4 → "4".
	want := []int{1, 3, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestHeapBeforeWheelAtSameInstant pins the rule that makes two structures
// fire in (at, seq) order: at each instant the heap's events go first. A
// was scheduled for T from wheelSlots µs away (heap), B from inside the
// window (wheel), and C from A's callback at T (wheel, behind B).
func TestHeapBeforeWheelAtSameInstant(t *testing.T) {
	s := NewScheduler()
	const T = Time(wheelSlots + 100)
	var got []string
	a := s.At(T, func() {
		got = append(got, "A")
		s.At(s.Now(), func() { got = append(got, "C") })
	})
	var b Timer
	s.At(200, func() { b = s.At(T, func() { got = append(got, "B") }) })
	if s.pool[a.idx].where < 0 {
		t.Fatal("A should be on the heap")
	}
	s.RunUntil(200)
	if s.pool[b.idx].where != whereWheel {
		t.Fatal("B should be on the wheel")
	}
	s.Run()
	if want := "A B C"; strings.Join(got, " ") != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// TestRunUntilSkipsCancelledSlot: the next-instant search must not report a
// slot that holds only cancelled events, or RunUntil would move the clock
// onto it and then fire events beyond its limit.
func TestRunUntilSkipsCancelledSlot(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	first := s.At(5, func() { fired = append(fired, s.Now()) })
	s.At(10, func() { fired = append(fired, s.Now()) })
	first.Cancel()
	s.RunUntil(7)
	if len(fired) != 0 || s.Now() != 7 {
		t.Fatalf("RunUntil(7) fired %v, now %v; want nothing fired, now 7", fired, s.Now())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("Run fired %v, want [10]", fired)
	}
}

// BenchmarkSchedulerHold is the hold model of a real run: about 400 events
// pending, and each fired event schedules one more with a delay drawn from
// the in-run mix — a quarter under 16 µs (wakes and deliveries), half at
// 256–512 µs (service completions), a fifth at 1–4 ms (link latencies),
// one in twenty at 16–32 ms (slow operators) and a few at 64 ms or more
// (the heap's share).
func BenchmarkSchedulerHold(b *testing.B) {
	const pending = 400
	r := NewRNG(1, "hold")
	delays := make([]Duration, 4096)
	for i := range delays {
		var lo, span int
		switch p := r.IntN(1000); {
		case p < 250:
			lo, span = 0, 16
		case p < 750:
			lo, span = 256, 256
		case p < 950:
			lo, span = 1000, 3000
		case p < 995:
			lo, span = 16000, 16000
		default:
			lo, span = 64000, 64000
		}
		delays[i] = Duration(lo + r.IntN(span))
	}
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < pending; i++ {
		s.After(delays[i], fn)
	}
	hold := func(i int) {
		s.Step()
		s.After(delays[i&(len(delays)-1)], fn)
	}
	for i := 0; i < 100*pending; i++ {
		hold(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hold(i)
	}
}

// BenchmarkNewRNG measures minting one named stream — what every cohort and
// every engine instance pays twice. Gated on allocations and bytes only.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	var sink *RNG
	for i := 0; i < b.N; i++ {
		sink = NewRNG(int64(i), "cohort/17/arrivals")
	}
	_ = sink
}

// BenchmarkZipfNext measures one key draw over 30 000 keys at s = 0.5, the
// widest and flattest key space the workloads draw from, where the guide
// table does the most work. Gated on allocations: a draw makes none.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(NewRNG(1, "zipf"), 30000, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += z.Next()
	}
	if sum < 0 {
		b.Fatal("negative rank")
	}
}
