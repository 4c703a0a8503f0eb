package engine

import (
	"fmt"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// poolCtx is an OpContext that allocates nothing once warm: emitted records
// are counted and go straight back to the pool NewRecord draws from.
type poolCtx struct {
	store   *state.Store
	pool    netsim.RecordPool
	emitted int
}

func (c *poolCtx) Emit(r *netsim.Record)     { c.emitted++; c.pool.Put(r) }
func (c *poolCtx) NewRecord() *netsim.Record { return c.pool.Get() }
func (c *poolCtx) State() *state.Store       { return c.store }

// windowCycle returns one steady-state round of a windowed logic: every one
// of 64 keys gets two records, then the watermark passes far enough that
// every window holding them fires and every key empties. The next round's
// records make the keys return.
func windowCycle(l dataflow.Logic, ctx *poolCtx, aux func(i int) any) func() {
	recs := make([]netsim.Record, 128)
	var now simtime.Time
	l.OnWatermark(ctx, now)
	return func() {
		for i := range recs {
			recs[i] = netsim.Record{Key: uint64(i%64) + 1, EventTime: now + simtime.Time(i%50), Value: float64(i), Aux: aux(i)}
			l.OnRecord(ctx, &recs[i])
		}
		now += 400
		l.OnWatermark(ctx, now)
		if n := ctx.store.KeyCount(); n != 0 {
			panic(fmt.Sprintf("%d keys hold state after their windows fired", n))
		}
	}
}

// TestWindowSteadyStateAllocs: once warm, a sliding window whose keys empty
// at every fire and come back before the next one allocates nothing — the
// panes of emptied keys are reused with their capacity.
func TestWindowSteadyStateAllocs(t *testing.T) {
	ctx := &poolCtx{store: newFakeCtx().store}
	cycle := windowCycle(&SlidingWindowLogic{Size: 100, Slide: 50}, ctx, func(int) any { return nil })
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("a window OnRecord+fire cycle allocates %.2f objects, want 0", avg)
	}
	if ctx.emitted == 0 {
		t.Fatal("no window fired")
	}
}

// TestJoinSteadyStateAllocs is TestWindowSteadyStateAllocs for the window
// join, with both sides tagged by a tag boxed once, as the NEXMark Q8 sources
// do.
func TestJoinSteadyStateAllocs(t *testing.T) {
	ctx := &poolCtx{store: newFakeCtx().store}
	left, right := any(JoinSide{Left: true, Value: 1}), any(JoinSide{Value: 1})
	side := func(i int) any {
		if i < 64 {
			return left
		}
		return right
	}
	cycle := windowCycle(&WindowJoinLogic{Size: 100, Slide: 50}, ctx, side)
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("a join OnRecord+fire cycle allocates %.2f objects, want 0", avg)
	}
	if ctx.emitted == 0 {
		t.Fatal("no join matched")
	}
}

// TestAlignmentRoundAllocs: a barrier aligned over 256 input channels and
// released allocates nothing once the instance has aligned one before, the
// key's channel set is kept in (src, dst) order whatever the arrival order,
// a repeated arrival is counted once, and release unblocks every channel.
func TestAlignmentRoundAllocs(t *testing.T) {
	const fanIn = 256
	rt, in := fanInRig(fanIn)
	keys := []AlignKey{{Kind: "ckpt", ID: 1}, {Kind: "ckpt", ID: 2}}
	k := 0
	round := func() {
		key := keys[k%len(keys)]
		k++
		for i := 0; i < fanIn; i++ {
			e := in.ins[i*97%fanIn]
			if in.AlignOn(key, e) != (i == fanIn-1) {
				panic(fmt.Sprintf("arrival %d of %d reported the wrong alignment", i+1, fanIn))
			}
			if i == 0 && in.AlignOn(key, e) {
				panic("a repeated arrival completed the alignment")
			}
		}
		in.ReleaseAlignment(key)
		rt.Sched.Run()
	}
	round()
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("an alignment round over %d channels allocates %.2f objects, want 0", fanIn, avg)
	}
	for i, e := range in.ins {
		if in.EdgeBlocked(e) {
			t.Fatalf("channel %d still blocked after release", i)
		}
	}
	for i := 0; i < fanIn; i++ {
		in.AlignOn(AlignKey{Kind: "order"}, in.ins[(fanIn-1-i)*97%fanIn])
	}
	for i, e := range in.aligners[AlignKey{Kind: "order"}] {
		if e.Src.Index != i {
			t.Fatalf("set position %d holds src[%d], want (src, dst) order", i, e.Src.Index)
		}
	}
}

// TestStateCheckpointSteadyStateAllocs: once warm, a snapshot that evicts the
// older one, over keyed stores whose every group is rewritten at constant
// size between snapshots, allocates nothing: the evicted snapshot's copies
// go back to the pool and are refilled, and its instance list and windows
// are reused. Both retained snapshots still serve every key group after.
func TestStateCheckpointSteadyStateAllocs(t *testing.T) {
	rt, ck, name := checkpointRig(t)
	dirty := dirtyEach(t, rt)
	cycle := func() {
		dirty()
		ck.take()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("a dirty take/evict cycle allocates %.2f objects, want 0", avg)
	}
	lookupAll(t, ck, name)
}
