package simtime

import (
	"testing"
)

// FuzzSchedulerOrder decodes bytes into a sequence of scheduler operations
// and checks every firing against a reference model: a flat list of events
// in which the next to fire is the live one with the least (at, seq). After
// every operation Now(), Pending() and every Timer's Pending() must match
// the model, and NothingDueNow() must hold exactly when the model has no
// live event at Now() — after an operation and inside every callback, where
// a tail-inlined wake relies on it.
//
// Operations (one opcode byte each, arguments follow):
//
//	0, 1  At / After with a delay of 0, below wheelSlots, around wheelSlots,
//	      beyond it, or several wheel laps ahead; the event may schedule one
//	      child from its callback
//	2     Cancel of any timer made so far (live, fired or cancelled)
//	3     Step
//	4     RunUntil(t) stopping short of the next event, then At an instant
//	      between t and that event
//	5     RunUntil(now + delay)
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 2, 0, 3, 4, 7, 3, 3})
	f.Add([]byte{0, 2, 9, 9, 0, 3, 1, 0, 0, 1, 0, 0, 4, 0, 3, 3, 3})
	f.Add([]byte{1, 1, 0, 5, 0, 1, 1, 0, 10, 0, 2, 0, 4, 1, 5, 1, 0, 3, 3})
	f.Add([]byte{0, 4, 2, 1, 1, 1, 3, 0, 0, 0, 0, 1, 2, 7, 0, 0, 5, 4, 0, 0, 3, 3, 3, 3})
	f.Add([]byte{1, 3, 0, 2, 0, 0, 0, 1, 2, 1, 5, 3, 2, 0, 0, 0, 2, 1, 4, 9, 4, 3, 3, 3})
	// An event at now+32765 whose slot lies below now's in the same bitmap
	// word: only the wrap-around pass over the first word finds it.
	f.Add([]byte("09011"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSchedulerOrder(t, data)
	})
}

// modelEvent is one event as the reference model sees it.
type modelEvent struct {
	at    Time
	seq   int
	live  bool
	timer Timer
	child Duration // scheduled After(child) when fired; < 0 for none
}

func checkSchedulerOrder(t *testing.T, data []byte) {
	s := NewScheduler()
	var evs []*modelEvent
	now := Time(0)

	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	// delay draws one of the delay classes that separate wheel from heap.
	delay := func() Duration {
		switch next() % 5 {
		case 0:
			return 0
		case 1:
			return Duration((next()<<8 | next()) % wheelSlots)
		case 2:
			return Duration(wheelSlots - 2 + next()%4) // the wheel/heap boundary
		case 3:
			return Duration(wheelSlots + (next()<<8 | next()))
		default:
			return Duration((1+next()%4)*wheelSlots + next()%7 - 3)
		}
	}
	// nextLive is the model's next event: the live one with the least
	// (at, seq).
	nextLive := func() *modelEvent {
		var best *modelEvent
		for _, e := range evs {
			if e.live && (best == nil || e.at < best.at || e.at == best.at && e.seq < best.seq) {
				best = e
			}
		}
		return best
	}
	// checkDue: NothingDueNow() iff no live event is due at Now().
	checkDue := func(op string) {
		t.Helper()
		due := -1
		for _, e := range evs {
			if e.live && e.at == s.Now() {
				due = e.seq
				break
			}
		}
		if got := s.NothingDueNow(); got != (due < 0) {
			t.Fatalf("%s: NothingDueNow() %v at %v with live seq %d due (-1: none)", op, got, s.Now(), due)
		}
	}
	var schedule func(at Time, child Duration)
	schedule = func(at Time, child Duration) {
		e := &modelEvent{at: at, seq: len(evs), live: true, child: child}
		evs = append(evs, e)
		e.timer = s.At(at, func() {
			want := nextLive()
			if want != e {
				t.Fatalf("fired event seq %d at %v; model expects seq %d at %v", e.seq, e.at, want.seq, want.at)
			}
			if s.Now() != e.at {
				t.Fatalf("event due %v fired with Now() %v", e.at, s.Now())
			}
			e.live = false
			now = e.at
			checkDue("callback")
			if e.child >= 0 {
				schedule(s.Now().Add(e.child), -1)
			}
		})
	}
	check := func(op string) {
		t.Helper()
		checkDue("after " + op)
		if s.Now() != now {
			t.Fatalf("after %s: Now() %v, model %v", op, s.Now(), now)
		}
		live := 0
		for _, e := range evs {
			if e.live {
				live++
			}
			if e.timer.Pending() != e.live {
				t.Fatalf("after %s: event seq %d Pending() %v, model %v", op, e.seq, e.timer.Pending(), e.live)
			}
		}
		if s.Pending() != live {
			t.Fatalf("after %s: Pending() %d, model %d", op, s.Pending(), live)
		}
	}

	for pos < len(data) && len(evs) < 512 {
		switch op := next() % 6; op {
		case 0, 1:
			d := delay()
			child := Duration(-1)
			if next()%2 == 1 {
				child = delay()
			}
			if op == 0 {
				schedule(now.Add(d), child)
			} else {
				// After schedules at Now()+d; the model's clock is Now().
				schedule(s.Now().Add(d), child)
			}
			check("At")
		case 2:
			if len(evs) == 0 {
				continue
			}
			e := evs[next()%len(evs)]
			if got := e.timer.Cancel(); got != e.live {
				t.Fatalf("Cancel of seq %d reported %v, model live %v", e.seq, got, e.live)
			}
			e.live = false
			check("Cancel")
		case 3:
			want := nextLive()
			if got := s.Step(); got != (want != nil) {
				t.Fatalf("Step reported %v with model next %v", got, want)
			}
			if want != nil && want.live {
				t.Fatalf("Step did not fire seq %d", want.seq)
			}
			check("Step")
		case 4:
			want := nextLive()
			if want == nil || want.at-now < 2 {
				continue
			}
			gap := want.at - now
			until := now + 1 + Time(next()<<8|next())%(gap-1)
			s.RunUntil(until)
			if !want.live {
				t.Fatalf("RunUntil(%v) fired seq %d due %v", until, want.seq, want.at)
			}
			now = until
			check("RunUntil short")
			schedule(until+Time(next())%(want.at-until), -1)
			check("At before next")
		case 5:
			until := now.Add(delay())
			s.RunUntil(until)
			if e := nextLive(); e != nil && e.at <= until {
				t.Fatalf("RunUntil(%v) left seq %d due %v", until, e.seq, e.at)
			}
			if now < until {
				now = until
			}
			check("RunUntil")
		}
	}
	s.Run()
	if e := nextLive(); e != nil {
		t.Fatalf("Run left seq %d due %v", e.seq, e.at)
	}
	check("Run")
}
