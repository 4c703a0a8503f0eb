package engine

import (
	"fmt"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// fakeCtx is a minimal OpContext for exercising operator logic directly.
type fakeCtx struct {
	store *state.Store
	out   []*netsim.Record
}

func newFakeCtx() *fakeCtx {
	st := state.NewStore(8)
	for kg := 0; kg < 8; kg++ {
		st.OwnGroup(kg)
	}
	return &fakeCtx{store: st}
}

func (c *fakeCtx) Emit(r *netsim.Record)     { c.out = append(c.out, r) }
func (c *fakeCtx) NewRecord() *netsim.Record { return &netsim.Record{} }
func (c *fakeCtx) State() *state.Store       { return c.store }

func rec(key uint64, at simtime.Time, v float64) *netsim.Record {
	return &netsim.Record{Key: key, EventTime: at, Value: v}
}

func TestSlidingWindowExactContents(t *testing.T) {
	ctx := newFakeCtx()
	l := &SlidingWindowLogic{Size: 100, Slide: 50}
	l.OnWatermark(ctx, 0) // init the grid
	// Values at t=10, 60, 110 for key 1.
	l.OnRecord(ctx, rec(1, 10, 5))
	l.OnRecord(ctx, rec(1, 60, 7))
	l.OnRecord(ctx, rec(1, 110, 3))
	l.OnWatermark(ctx, 100) // fires windows ending at 50 and 100
	// Window (−50,50]: contains t=10 → max 5. Window (0,100]: 5,7 → 7.
	if len(ctx.out) != 2 {
		t.Fatalf("fired %d windows, want 2", len(ctx.out))
	}
	if ctx.out[0].Value != 5 || ctx.out[1].Value != 7 {
		t.Fatalf("window values %v, %v", ctx.out[0].Value, ctx.out[1].Value)
	}
	ctx.out = nil
	l.OnWatermark(ctx, 220) // windows ending 150, 200 contain t=60?,110
	// (50,150]: 7 at 60, 3 at 110 → 7; (100,200]: 3 → 3; plus empty (150,250] not yet.
	if len(ctx.out) != 2 {
		t.Fatalf("fired %d windows, want 2 (150 and 200)", len(ctx.out))
	}
	if ctx.out[0].Value != 7 || ctx.out[1].Value != 3 {
		t.Fatalf("window values %v, %v", ctx.out[0].Value, ctx.out[1].Value)
	}
}

func TestSlidingWindowEvictsOldState(t *testing.T) {
	ctx := newFakeCtx()
	l := &SlidingWindowLogic{Size: 100, Slide: 50, BytesPerEntry: 10}
	l.OnWatermark(ctx, 0)
	l.OnRecord(ctx, rec(1, 10, 1))
	if ctx.store.TotalBytes() != 10 {
		t.Fatalf("bytes %d", ctx.store.TotalBytes())
	}
	l.OnWatermark(ctx, 300) // far beyond t=10+Size: entry evicted, key deleted
	if ctx.store.TotalBytes() != 0 || ctx.store.KeyCount() != 0 {
		t.Fatalf("stale window state retained: %d bytes, %d keys",
			ctx.store.TotalBytes(), ctx.store.KeyCount())
	}
}

func TestSlidingWindowHugeWatermarkJump(t *testing.T) {
	// A stream-end watermark jump of ~10^9 slides must not iterate the grid:
	// the catch-up path fires only candidate ends.
	ctx := newFakeCtx()
	l := &SlidingWindowLogic{Size: simtime.Duration(100), Slide: simtime.Duration(50)}
	l.OnWatermark(ctx, 0)
	l.OnRecord(ctx, rec(1, 60, 9))
	l.OnWatermark(ctx, simtime.Time(1)<<50)
	// The record's only non-empty windows end at 100 and 150.
	if len(ctx.out) != 2 {
		t.Fatalf("catch-up fired %d windows, want 2", len(ctx.out))
	}
	for _, r := range ctx.out {
		if r.Value != 9 {
			t.Fatalf("bad catch-up value %v", r.Value)
		}
	}
}

func TestWindowJoinMatchesBothSidesOnly(t *testing.T) {
	ctx := newFakeCtx()
	l := &WindowJoinLogic{Size: 100, Slide: 100}
	l.OnWatermark(ctx, 0)
	// Key 1: both sides. Key 2: left only.
	l.OnRecord(ctx, &netsim.Record{Key: 1, EventTime: 10, Aux: JoinSide{Left: true, Value: 1}})
	l.OnRecord(ctx, &netsim.Record{Key: 1, EventTime: 20, Aux: JoinSide{Left: false, Value: 1}})
	l.OnRecord(ctx, &netsim.Record{Key: 2, EventTime: 30, Aux: JoinSide{Left: true, Value: 1}})
	l.OnWatermark(ctx, 100)
	if len(ctx.out) != 1 {
		t.Fatalf("join fired %d matches, want 1", len(ctx.out))
	}
	if ctx.out[0].Key != 1 || ctx.out[0].Value != 1 {
		t.Fatalf("bad match %+v", ctx.out[0])
	}
}

func TestWindowJoinPairCount(t *testing.T) {
	ctx := newFakeCtx()
	l := &WindowJoinLogic{Size: 100, Slide: 100}
	l.OnWatermark(ctx, 0)
	for i := 0; i < 3; i++ {
		l.OnRecord(ctx, &netsim.Record{Key: 1, EventTime: simtime.Time(10 + i), Aux: JoinSide{Left: true}})
	}
	for i := 0; i < 2; i++ {
		l.OnRecord(ctx, &netsim.Record{Key: 1, EventTime: simtime.Time(40 + i), Aux: JoinSide{Left: false}})
	}
	l.OnWatermark(ctx, 100)
	if len(ctx.out) != 1 || ctx.out[0].Value != 6 {
		t.Fatalf("want 3×2=6 pairs, got %v", ctx.out)
	}
}

func TestMapLogicDropAndTransform(t *testing.T) {
	ctx := newFakeCtx()
	drop := &MapLogic{Fn: func(r *netsim.Record) *netsim.Record {
		if r.Key%2 == 0 {
			return nil
		}
		r.Value = 42
		return r
	}}
	drop.OnRecord(ctx, rec(1, 0, 0))
	drop.OnRecord(ctx, rec(2, 0, 0))
	if len(ctx.out) != 1 || ctx.out[0].Value != 42 {
		t.Fatalf("map output %v", ctx.out)
	}
	// Identity map forwards untouched.
	ctx.out = nil
	(&MapLogic{}).OnRecord(ctx, rec(3, 0, 0))
	if len(ctx.out) != 1 || ctx.out[0].Key != 3 {
		t.Fatal("identity map broken")
	}
}

func TestJoinSideMissingAuxDefaultsToRightZero(t *testing.T) {
	// A record without an Aux payload joins as a zero-valued right-side
	// entry (the JoinSide zero value) instead of panicking.
	ctx := newFakeCtx()
	l := &WindowJoinLogic{Size: 100, Slide: 100}
	l.OnWatermark(ctx, 0)
	l.OnRecord(ctx, &netsim.Record{Key: 1, EventTime: 10})
	l.OnRecord(ctx, &netsim.Record{Key: 1, EventTime: 20, Aux: JoinSide{Left: true}})
	l.OnWatermark(ctx, 100)
	if len(ctx.out) != 1 || ctx.out[0].Value != 1 {
		t.Fatalf("want one 1×1 match, got %v", ctx.out)
	}
}

// TestCollectSinkDuplicates: the exactly-once ledger counts every arrival
// beyond a sequence number's first — a number seen three times counts 2 —
// across bitset growth, and ignores unsequenced records.
func TestCollectSinkDuplicates(t *testing.T) {
	s := NewCollectSink()
	for _, seq := range []uint64{1, 2, 3, 0, 0, 70000, 2, 5, 2, 70000, 63, 64, 64} {
		s.OnRecord(nil, &netsim.Record{Key: seq%3 + 1, Value: 1, Seq: seq})
	}
	// 2 seen three times (2), 70000 twice (1), 64 twice (1).
	if got := s.Duplicates(); got != 4 {
		t.Fatalf("Duplicates() = %d, want 4", got)
	}
	if s.Records != 13 {
		t.Fatalf("Records = %d, want 13", s.Records)
	}
	if NewCollectSink().Duplicates() != 0 {
		t.Fatal("empty sink reports duplicates")
	}
}

// TestWindowCheckpointsArePointInTime: window panes and join buffers are
// changed in place by OnRecord and trimmed in place by firing, so a store
// snapshot must hold its own copy. A snapshot taken after one record to key
// 5 restores to exactly one entry, whatever the live store does afterwards,
// and a store restored from it does not write back into it.
func TestWindowCheckpointsArePointInTime(t *testing.T) {
	// times lists a payload's buffered event times.
	times := func(v any) []int64 {
		var es []paneEntry
		switch p := v.(type) {
		case *windowPane:
			es = p.Values
		case *joinState:
			es = append(append(es, p.Left...), p.Right...)
		default:
			t.Fatalf("unexpected payload %T", v)
		}
		out := make([]int64, len(es))
		for i, pe := range es {
			out[i] = int64(pe.At)
		}
		return out
	}
	want := fmt.Sprint([]int64{10})
	for _, tc := range []struct {
		name  string
		logic func() dataflow.Logic
	}{
		{"window", func() dataflow.Logic { return &SlidingWindowLogic{Size: 100, Slide: 50} }},
		{"join", func() dataflow.Logic { return &WindowJoinLogic{Size: 100, Slide: 50} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newFakeCtx()
			l := tc.logic()
			l.OnWatermark(ctx, 0)
			l.OnRecord(ctx, &netsim.Record{Key: 5, EventTime: 10, Value: 1, Aux: JoinSide{Left: true, Value: 1}})
			snap := ctx.store.Snapshot()
			l.OnRecord(ctx, &netsim.Record{Key: 5, EventTime: 60, Value: 2, Aux: JoinSide{Left: true, Value: 2}})
			restored := state.NewStore(8)
			restored.Restore(snap)
			if v, _ := restored.Get(5); fmt.Sprint(times(v)) != want {
				t.Fatalf("checkpoint of key 5 holds entries at %v after a later record, want %s", times(v), want)
			}
			l.OnWatermark(ctx, 150) // fires and trims the t=10 entry in place
			restored.Restore(snap)
			if v, _ := restored.Get(5); fmt.Sprint(times(v)) != want {
				t.Fatalf("checkpoint of key 5 holds entries at %v after a window fired, want %s", times(v), want)
			}
			rctx := &fakeCtx{store: restored}
			l.OnRecord(rctx, &netsim.Record{Key: 5, EventTime: 70, Value: 3, Aux: JoinSide{Value: 3}})
			again := state.NewStore(8)
			again.Restore(snap)
			if v, _ := again.Get(5); fmt.Sprint(times(v)) != want {
				t.Fatalf("a store restored from the checkpoint wrote into it: entries at %v, want %s", times(v), want)
			}
		})
	}
}

// TestRecycledPaneLeavesCheckpointIntact: a key that empties gives its pane
// or join buffer to the next new key, which writes into the same backing
// array. A checkpoint taken before the key emptied must still thaw to the
// entries it held then.
func TestRecycledPaneLeavesCheckpointIntact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		logic dataflow.Logic
	}{
		{"window", &SlidingWindowLogic{Size: 100, Slide: 50}},
		{"join", &WindowJoinLogic{Size: 100, Slide: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newFakeCtx()
			l := tc.logic
			l.OnWatermark(ctx, 0)
			l.OnRecord(ctx, &netsim.Record{Key: 5, EventTime: 10, Value: 1, Aux: JoinSide{Left: true, Value: 1}})
			old, _ := ctx.store.Get(5)
			snap := ctx.store.Snapshot()
			l.OnWatermark(ctx, 400) // key 5 empties; its payload is kept for reuse
			if ctx.store.KeyCount() != 0 {
				t.Fatalf("%d keys hold state after every window fired", ctx.store.KeyCount())
			}
			l.OnRecord(ctx, &netsim.Record{Key: 7, EventTime: 420, Value: 9, Aux: JoinSide{Left: true, Value: 9}})
			if reused, _ := ctx.store.Get(7); reused != old {
				t.Fatalf("key 7 got a fresh payload; the emptied key's was not reused")
			}
			restored := state.NewStore(8)
			restored.Restore(snap)
			v, ok := restored.Get(5)
			if !ok {
				t.Fatal("checkpoint lost key 5")
			}
			var es []paneEntry
			switch p := v.(type) {
			case *windowPane:
				es = p.Values
			case *joinState:
				es = append(append(es, p.Left...), p.Right...)
			}
			if len(es) != 1 || es[0].At != 10 {
				t.Fatalf("checkpoint of key 5 thaws to %v, want one entry at 10", es)
			}
		})
	}
}
