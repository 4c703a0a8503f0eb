package simtime

import (
	"testing"
)

// BenchmarkScheduler measures the steady-state cost of the scheduler's core
// cycle: schedule a future event, fire it, repeat — the dominant pattern of
// the simulation (processing-cost timers and edge arrivals).
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

// BenchmarkSchedulerFastLane measures the After(0, ...) wake pattern that
// bypasses the heap entirely.
func BenchmarkSchedulerFastLane(b *testing.B) {
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

// BenchmarkSchedulerCancel measures indexed cancellation of heap events.
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(Duration(i%1024+1), fn)
		t.Cancel()
		if i%1024 == 1023 {
			s.Run() // drain nothing; keep the clock moving
		}
	}
}

// BenchmarkSchedulerMixed stresses a deep heap: many pending timers with
// interleaved scheduling, firing, and cancellation.
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
	// Warm the pool, heap, and fast lane.
	for i := 0; i < 1024; i++ {
		s.After(Duration(i%13), fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		s.After(5, fn)
		s.After(0, fn)
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
	b := s.At(20, fn)
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
	// Fast-lane events count and un-count the same way.
	d := s.After(0, fn)
	if s.Pending() != 3 {
		t.Fatalf("pending with lane event %d, want 3", s.Pending())
	}
	if !d.Cancel() {
		t.Fatal("lane cancel failed")
	}
	if s.Pending() != 2 {
		t.Fatalf("pending after lane cancel %d, want 2", s.Pending())
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

// TestSchedulerHeapLaneOrdering pins the tie-break between heap events and
// fast-lane events at the same instant: scheduling order wins, regardless of
// which structure holds the event.
func TestSchedulerHeapLaneOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	// Scheduled before the clock reaches 10 → heap.
	s.At(10, func() { got = append(got, 1) })
	s.At(5, func() {
		// At t=5, schedule for t=10: also heap (future).
		s.At(10, func() { got = append(got, 2) })
	})
	s.At(10, func() {
		// Fires at t=10 (first heap event... this is the 3rd at-10 event by
		// seq, but scheduled second). During the instant, After(0) → lane.
		s.After(0, func() { got = append(got, 4) })
		got = append(got, 3)
	})
	s.Run()
	// Heap events at t=10 fire in seq order (1, 3, 2 — seq 0, 2, then the
	// nested one), then the lane (4). Build the expected order explicitly:
	// seq: At(10)#1 seq0, At(5) seq1, At(10)#3 seq2; at t=5 nested At(10)
	// gets seq3. So at t=10: seq0 → "1", seq2 → "3" (queues lane "4"),
	// seq3 → "2", then lane → "4".
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
