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
func checkpointRig(b *testing.B) (*Runtime, *StateCheckpointer, string) {
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
func lookupAll(b *testing.B, ck *StateCheckpointer, name string) {
	for kg := 0; kg < 32; kg++ {
		if _, ok := ck.Lookup("agg", name, kg); !ok {
			b.Fatalf("kg %d in no snapshot", kg)
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
// that). This is the number to watch when changing the slab store's
// Snapshot path.
func BenchmarkStateCheckpointDirty(b *testing.B) {
	rt, ck, name := checkpointRig(b)
	type entry struct {
		g   *state.Group
		key uint64
	}
	var dirty []entry
	for _, in := range rt.Instances("agg") {
		st := in.Store()
		for _, kg := range st.Groups() {
			g := st.Group(kg)
			if g.Len() == 0 {
				b.Fatalf("%s: key group %d is empty", in.Name(), kg)
			}
			dirty = append(dirty, entry{g, g.Keys()[0]})
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range dirty {
			acc, _ := e.g.GetF64(e.key)
			e.g.PutF64(e.key, acc+1, 64) // KeyedReduceLogic's default state size
		}
		ck.take()
		lookupAll(b, ck, name)
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
