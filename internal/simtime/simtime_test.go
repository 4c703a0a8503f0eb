package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit ratios wrong")
	}
	if Ms(1.5) != 1500*Microsecond {
		t.Fatalf("Ms(1.5) = %d", Ms(1.5))
	}
	if Sec(2) != 2*Second {
		t.Fatalf("Sec(2) = %d", Sec(2))
	}
	if got := Time(2500).Millis(); got != 2.5 {
		t.Fatalf("Millis = %v", got)
	}
	if got := Duration(3 * Second).Seconds(); got != 3 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: %d", t1)
	}
	if t1.Sub(t0) != 50 {
		t.Fatalf("Sub: %d", t1.Sub(t0))
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("now: %v", s.Now())
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested: %v", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var n int
	s.At(10, func() { n++ })
	s.At(20, func() { n++ })
	s.At(30, func() { n++ })
	s.RunUntil(20)
	if n != 2 {
		t.Fatalf("fired %d", n)
	}
	if s.Now() != 20 {
		t.Fatalf("now %v", s.Now())
	}
	s.RunUntil(100)
	if n != 3 || s.Now() != 100 {
		t.Fatalf("after: n=%d now=%v", n, s.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler()
	var fired bool
	tm := s.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("double cancel should fail")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.At(10, func() {})
	s.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

// TestNothingDueNow covers what counts as due at the current instant. The
// heap case probes from inside a callback, the only place a heap event can
// be due at Now() without having fired.
func TestNothingDueNow(t *testing.T) {
	nop := func() {}
	far := Time(wheelSlots + 5) // scheduled from time 0, lands on the heap
	cases := []struct {
		name  string
		probe func(s *Scheduler) bool
		want  bool
	}{
		{"empty scheduler", func(s *Scheduler) bool { return s.NothingDueNow() }, true},
		{"live wheel event at now", func(s *Scheduler) bool {
			s.After(0, nop)
			return s.NothingDueNow()
		}, false},
		// The predicate is exact: cancelling unlinks the event from its
		// wheel slot, so a cancelled event leaves nothing due.
		{"cancelled wheel event at now", func(s *Scheduler) bool {
			s.After(0, nop).Cancel()
			if s.Pending() != 0 {
				t.Fatal("cancelled event still pending")
			}
			return s.NothingDueNow()
		}, true},
		{"heap event due now", func(s *Scheduler) bool {
			var got bool
			s.At(far, func() { got = s.NothingDueNow() })
			s.At(far, nop)
			s.Step()
			if s.Now() != far {
				t.Fatalf("probe fired at %v, want %v", s.Now(), far)
			}
			return got
		}, false},
		{"next event 1µs ahead", func(s *Scheduler) bool {
			var got bool
			s.At(far, func() { got = s.NothingDueNow() })
			s.At(far+1, nop)
			s.Step()
			return got
		}, true},
	}
	for _, c := range cases {
		if got := c.probe(NewScheduler()); got != c.want {
			t.Errorf("%s: NothingDueNow() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSchedulerAfterNegative(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(100)
	var at Time
	s.After(-5, func() { at = s.Now() })
	s.Run()
	if at != 100 {
		t.Fatalf("negative After fired at %v", at)
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Processed() != 5 {
		t.Fatalf("processed %d", s.Processed())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "source")
	b := NewRNG(42, "source")
	c := NewRNG(42, "other")
	same, diff := true, false
	for i := 0; i < 100; i++ {
		x, y, z := a.Int64(), b.Int64(), c.Int64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same-name streams diverged")
	}
	if !diff {
		t.Fatal("different-name streams identical")
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(1, "j")
	d := Duration(1000)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(d, 0.25)
		if v < 750 || v > 1250 {
			t.Fatalf("jitter out of bounds: %d", v)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Fatal("zero jitter should be identity")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(7, "e")
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(1000))
	}
	mean := sum / float64(n)
	if math.Abs(mean-1000) > 50 {
		t.Fatalf("exp mean %v too far from 1000", mean)
	}
}

func TestZipfUniform(t *testing.T) {
	r := NewRNG(3, "z")
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("uniform zipf rank %d count %d", i, c)
		}
	}
}

func TestZipfSkewMonotone(t *testing.T) {
	r := NewRNG(3, "z2")
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[z.Next()]++
	}
	if counts[0] < counts[50] || counts[0] < counts[99] {
		t.Fatalf("skewed zipf not concentrated at rank 0: %d vs %d vs %d",
			counts[0], counts[50], counts[99])
	}
	// Rank 0 under s=1 over 100 ranks should carry roughly 1/H(100) ~ 19%.
	frac := float64(counts[0]) / 200000
	if frac < 0.12 || frac < float64(counts[1])/200000 {
		t.Fatalf("rank-0 mass %v implausible for s=1", frac)
	}
}

func TestZipfHighSkew(t *testing.T) {
	r := NewRNG(9, "z3")
	z := NewZipf(r, 64, 1.5)
	counts := make([]int, 64)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	top := counts[0] + counts[1] + counts[2] + counts[3]
	if float64(top)/100000 < 0.5 {
		t.Fatalf("s=1.5 should put >50%% mass on top-4 ranks, got %v", float64(top)/100000)
	}
}

func TestZipfRangeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%64) + 1
		s := float64(sRaw%30) / 10 // 0 .. 2.9
		z := NewZipf(NewRNG(seed, "prop"), n, s)
		for i := 0; i < 200; i++ {
			v := z.Next()
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerEventStorm(t *testing.T) {
	// Property: N self-rescheduling chains fire in strict time order.
	s := NewScheduler()
	last := Time(-1)
	var steps int
	var spawn func(at Time, left int)
	spawn = func(at Time, left int) {
		s.At(at, func() {
			if s.Now() < last {
				t.Fatalf("time went backwards: %v < %v", s.Now(), last)
			}
			last = s.Now()
			steps++
			if left > 0 {
				spawn(s.Now().Add(Duration(left%7+1)), left-1)
			}
		})
	}
	for i := 0; i < 20; i++ {
		spawn(Time(i), 50)
	}
	s.Run()
	if steps != 20*51 {
		t.Fatalf("steps %d", steps)
	}
}
