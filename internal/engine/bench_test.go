package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// checkpointRig runs a small keyed-reduce job for 5 s and returns it with a
// stopped StateCheckpointer, whose take() the checkpoint benchmarks drive by
// hand, and the name of one agg instance.
func checkpointRig(tb testing.TB) (*Runtime, *StateCheckpointer, string) {
	sink := NewCollectSink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 2,
		Source: fixedRateSource(2000, simtime.Ms(1), 512),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "agg", Parallelism: 4, KeyedInput: true, MaxKeyGroups: 32,
		CostPerRecord: simtime.Ms(0.1),
		NewLogic:      func() dataflow.Logic { return &KeyedReduceLogic{EmitUpdates: true} },
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "sink", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return sink },
	})
	g.Connect("src", "agg", dataflow.ExchangeKeyed)
	g.Connect("agg", "sink", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 7, MarkerInterval: -1})
	rt.Start()
	rt.RunFor(simtime.Sec(5))

	ck := rt.StartStateCheckpoints(simtime.Sec(1))
	ck.Stop() // drive take() by hand; no timer churn in the loop
	return rt, ck, rt.Instance("agg", 0).Name()
}

// lookupAll requires every key group of agg to be found in a snapshot.
func lookupAll(tb testing.TB, ck *StateCheckpointer, name string) {
	for kg := 0; kg < 32; kg++ {
		if _, ok := ck.Lookup("agg", name, kg); !ok {
			tb.Fatalf("kg %d in no snapshot", kg)
		}
	}
}

// dirtyEach returns a function that rewrites one key of every agg group at
// its current size, so the next snapshot has to copy every group.
func dirtyEach(tb testing.TB, rt *Runtime) func() {
	type entry struct {
		g   *state.Group
		key uint64
	}
	var dirty []entry
	for _, in := range rt.Instances("agg") {
		for kg, g := range in.Store().Groups() {
			if g.Len() == 0 {
				tb.Fatalf("%s: key group %d is empty", in.Name(), kg)
			}
			dirty = append(dirty, entry{g, g.Keys()[0]})
		}
	}
	return func() {
		for _, e := range dirty {
			acc, _ := e.g.GetF64(e.key)
			e.g.PutF64(e.key, acc+1, 64) // KeyedReduceLogic's default state size
		}
	}
}

// BenchmarkStateCheckpoint measures one out-of-band snapshot sweep plus the
// recovery-path lookups over populated keyed stores — the recurring cost the
// fault layer adds to a run at every checkpoint cadence. Nothing is written
// between sweeps, so every group shares the frozen copy it made at the first
// sweep: this is the cost of a checkpoint over idle state. The copy path is
// BenchmarkStateCheckpointDirty.
func BenchmarkStateCheckpoint(b *testing.B) {
	_, ck, name := checkpointRig(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ck.take()
		lookupAll(b, ck, name)
	}
}

// BenchmarkStateCheckpointDirty is BenchmarkStateCheckpoint with one key of
// every keyed group written between sweeps, so every sweep copies every
// group's slab and free list (but not its key index: a restore rebuilds
// that). The copies go into those the evicted sweep released, so once warm
// a sweep allocates nothing. This is the number to watch when changing the
// slab store's Snapshot path.
func BenchmarkStateCheckpointDirty(b *testing.B) {
	rt, ck, name := checkpointRig(b)
	dirty := dirtyEach(b, rt)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dirty()
		ck.take()
		lookupAll(b, ck, name)
	}
}

// BenchmarkWindowFire measures one slide of a NEXMark Q7-shaped sliding
// window at one instance: 100 ms of bids at 2000/s over 2000 Zipf(0.8)
// auctions go into a 2 s window, then the watermark fires the window that
// the slide closes. Keys empty and return all the time, so this is the
// number to watch when changing pane storage or window firing. A warm
// window allocates only when a reused pane has to grow past the capacity it
// came with, which becomes rarer the longer it runs.
func BenchmarkWindowFire(b *testing.B) {
	const (
		perSlide = 200 // 2000 bids/s × 100 ms
		slide    = 100 * simtime.Millisecond
	)
	st := state.NewStore(128)
	for kg := 0; kg < 128; kg++ {
		st.OwnGroup(kg)
	}
	ctx := &poolCtx{store: st}
	l := &SlidingWindowLogic{Size: 2 * simtime.Second, Slide: slide}
	zipf := simtime.NewZipf(simtime.NewRNG(7, "bench/window"), 2000, 0.8)
	keys := make([]uint64, 64*perSlide)
	for i := range keys {
		keys[i] = uint64(zipf.Next()) + 1
	}
	recs := make([]netsim.Record, perSlide)
	var now simtime.Time
	l.OnWatermark(ctx, now)
	step := func(i int) {
		for j := range recs {
			recs[j] = netsim.Record{
				Key:       keys[(i*perSlide+j)%len(keys)],
				EventTime: now + simtime.Time(j)*simtime.Time(slide)/perSlide,
				Value:     float64(j),
			}
			l.OnRecord(ctx, &recs[j])
		}
		now += simtime.Time(slide)
		l.OnWatermark(ctx, now)
	}
	for i := 0; i < 400; i++ { // twenty windows: state at its steady size
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	if ctx.emitted == 0 {
		b.Fatal("no window fired")
	}
}

// BenchmarkHandlerFanIn256 measures one input-gate poll on an instance with
// 256 input channels of which one has data — a wide sink's steady state. The
// cost must not grow with the number of idle channels.
func BenchmarkHandlerFanIn256(b *testing.B) {
	_, in := fanInRig(256)
	h := &NativeHandler{}
	r := &netsim.Record{Key: 1, Size: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ins[i*97%256].PushFrontInbox(r)
		if _, _, st := h.Next(in); st != NextOK {
			b.Fatalf("poll %d: status %v", i, st)
		}
	}
}

// BenchmarkWatermarkFanIn256 measures one watermark taken by an instance with
// 256 input channels: the per-channel update plus the alignment minimum.
// Channel 0 never advances, so the aligned watermark holds and nothing is
// broadcast — the loop is the alignment alone.
func BenchmarkWatermarkFanIn256(b *testing.B) {
	_, in := fanInRig(256)
	w := &netsim.Watermark{}
	for _, e := range in.ins {
		in.onWatermark(w, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WM = simtime.Time(i)
		in.onWatermark(w, in.ins[1+i%255])
	}
	if in.curWM != 0 {
		b.Fatalf("aligned watermark %v, want 0", in.curWM)
	}
}

// BenchmarkWatermarkFanOut is TestWatermarkBroadcastAllocs as a gated
// benchmark: one op is a source watermark advanced at an instance with 128
// output edges and taken by all 128 receivers, allocation-free once warm.
func BenchmarkWatermarkFanOut(b *testing.B) {
	_, cycle := fanOutRig(128)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestEmitSteadyStateAllocs is the allocation guard for the per-record
// emission path: once queues and pools are warm, a record emitted through a
// keyed port and a rebalance port (two outputs, so it is also copied), carried
// over both edges and consumed downstream must not allocate.
func TestEmitSteadyStateAllocs(t *testing.T) {
	discard := func() dataflow.Logic {
		return &MapLogic{Fn: func(*netsim.Record) *netsim.Record { return nil }}
	}
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{Name: "src", Parallelism: 1, Source: func(dataflow.SourceContext) {}})
	g.AddOperator(&dataflow.OperatorSpec{Name: "keyed", Parallelism: 4, KeyedInput: true, MaxKeyGroups: 32, NewLogic: discard})
	g.AddOperator(&dataflow.OperatorSpec{Name: "spread", Parallelism: 3, NewLogic: discard})
	g.Connect("src", "keyed", dataflow.ExchangeKeyed)
	g.Connect("src", "spread", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 1, MarkerInterval: -1})
	src := rt.Instance("src", 0)
	var key uint64
	batch := func() {
		for i := 0; i < 16; i++ {
			key++
			r := src.NewRecord()
			r.Key, r.Size = key, 64
			src.Emit(r)
		}
		s.Run()
	}
	for i := 0; i < 64; i++ {
		batch()
	}
	if avg := testing.AllocsPerRun(200, batch); avg != 0 {
		t.Fatalf("emitting through a keyed and a rebalance port allocates %.2f objects per 16 records, want 0", avg)
	}
	var processed uint64
	rt.EachInstance(func(in *Instance) { processed += in.Processed })
	if processed != 2*key {
		t.Fatalf("processed %d records, want every one of %d on both ports", processed, 2*key)
	}
}

// BenchmarkSourceBacklogBurst is TestSourceBacklogBurstAllocs as a gated
// benchmark: one op is a burst of 1 000 arrivals queued behind a paused
// source and drained, allocation-free once warm.
func BenchmarkSourceBacklogBurst(b *testing.B) {
	burst := sourceBurst(1000)
	burst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}
