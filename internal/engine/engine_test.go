package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// fixedRateSource ingests n records at the given period, cycling keys over
// keySpace, then emits a final high watermark.
func fixedRateSource(n int, period simtime.Duration, keySpace uint64) dataflow.SourceFunc {
	return func(ctx dataflow.SourceContext) {
		var emit func(i int)
		emit = func(i int) {
			if i >= n {
				ctx.EmitWatermark(simtime.Time(1 << 50))
				return
			}
			ctx.Ingest(&netsim.Record{
				Key:       uint64(i)%keySpace + 1,
				EventTime: ctx.Now(),
				Size:      64,
				Value:     1.0,
			})
			if i%10 == 9 {
				ctx.EmitWatermark(ctx.Now())
			}
			ctx.After(period, func() { emit(i + 1) })
		}
		emit(0)
	}
}

// keySink is a CollectSink that also sums record values per key, for tests
// that check per-key output.
type keySink struct {
	*CollectSink
	byKey map[uint64]float64
}

func newKeySink() *keySink { return &keySink{NewCollectSink(), map[uint64]float64{}} }

func (s *keySink) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	s.byKey[r.Key] += r.Value
	s.CollectSink.OnRecord(ctx, r)
}

// buildSimpleJob returns a src → agg(keyed) → sink job and the sink logic.
func buildSimpleJob(t *testing.T, srcP, aggP int, n int) (*Runtime, *keySink) {
	t.Helper()
	sink := newKeySink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: srcP,
		Source: fixedRateSource(n, simtime.Ms(1), 16),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "agg", Parallelism: aggP, KeyedInput: true, MaxKeyGroups: 32,
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
	rt := New(s, g, nil, Config{Seed: 7})
	return rt, sink
}

func TestPipelineDeliversAllRecords(t *testing.T) {
	rt, sink := buildSimpleJob(t, 2, 3, 200)
	rt.Start()
	rt.RunFor(simtime.Sec(10))
	// 2 sources × 200 records each.
	if sink.Records != 400 {
		t.Fatalf("sink saw %d records, want 400", sink.Records)
	}
	if d := sink.Duplicates(); d != 0 {
		t.Fatalf("%d duplicated seqs", d)
	}
}

func TestKeyedRoutingPartitionsByKeyGroup(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 3, 300)
	rt.Start()
	rt.RunFor(simtime.Sec(10))
	// Each agg instance must only hold keys of its own key groups.
	for _, in := range rt.Instances("agg") {
		for kg, g := range in.Store().Groups() {
			for _, k := range g.Keys() {
				if got := kgOf(k, 32); got != kg {
					t.Fatalf("key %d in group %d, hashes to %d", k, kg, got)
				}
			}
		}
	}
	// All three instances should have processed something.
	for _, in := range rt.Instances("agg") {
		if in.Processed == 0 {
			t.Fatalf("instance %s processed nothing", in.Name())
		}
	}
}

func kgOf(k uint64, maxKG int) int {
	return int(stateKeyGroupOf(k, maxKG))
}

// stateKeyGroupOf avoids importing state twice in tests.
func stateKeyGroupOf(k uint64, maxKG int) int {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(maxKG))
}

func TestLatencyMarkersMeasured(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 500)
	rt.Start()
	rt.RunFor(simtime.Sec(5))
	if rt.Latency.Series.Len() == 0 {
		t.Fatal("no latency samples")
	}
	mean := rt.Latency.AvgIn(0, simtime.Time(simtime.Sec(5)))
	if mean <= 0 {
		t.Fatalf("mean latency %v", mean)
	}
	if mean > 100 {
		t.Fatalf("unloaded pipeline mean latency %vms is implausible", mean)
	}
}

func TestThroughputTracked(t *testing.T) {
	rt, _ := buildSimpleJob(t, 2, 2, 300)
	rt.Start()
	rt.RunFor(simtime.Sec(5))
	if rt.Throughput.Total() != 600 {
		t.Fatalf("throughput total %d", rt.Throughput.Total())
	}
}

func TestKeyedReduceAggregation(t *testing.T) {
	rt, sink := buildSimpleJob(t, 1, 2, 160)
	rt.Start()
	rt.RunFor(simtime.Sec(10))
	// 160 records over 16 keys → 10 each; running sum emits 1..10 per key;
	// the sink sums the emitted updates: 55 per key.
	for k := uint64(1); k <= 16; k++ {
		if sink.byKey[k] != 55 {
			t.Fatalf("key %d sum %v, want 55", k, sink.byKey[k])
		}
	}
}

func TestWatermarkAlignmentMultiInput(t *testing.T) {
	// Two sources with different watermark paces: the keyed operator's
	// watermark must follow the minimum.
	var wms []simtime.Time
	g := dataflow.NewGraph()
	mk := func(name string, wmEvery simtime.Duration) {
		g.AddOperator(&dataflow.OperatorSpec{
			Name: name, Parallelism: 1,
			Source: func(ctx dataflow.SourceContext) {
				var tick func(i int)
				tick = func(i int) {
					if i >= 20 {
						return
					}
					ctx.Ingest(&netsim.Record{Key: uint64(i + 1), EventTime: ctx.Now(), Size: 64})
					ctx.EmitWatermark(ctx.Now())
					ctx.After(wmEvery, func() { tick(i + 1) })
				}
				tick(0)
			},
		})
	}
	mk("fast", simtime.Ms(10))
	mk("slow", simtime.Ms(50))
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "agg", Parallelism: 1, KeyedInput: true, MaxKeyGroups: 8,
		NewLogic: func() dataflow.Logic {
			return &watermarkProbe{out: &wms}
		},
	})
	g.Connect("fast", "agg", dataflow.ExchangeKeyed)
	g.Connect("slow", "agg", dataflow.ExchangeKeyed)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 1, MarkerInterval: -1})
	rt.Start()
	rt.RunFor(simtime.Sec(3))
	if len(wms) == 0 {
		t.Fatal("no watermarks observed")
	}
	for i := 1; i < len(wms); i++ {
		if wms[i] <= wms[i-1] {
			t.Fatalf("watermarks not strictly increasing: %v", wms)
		}
	}
	// The aligned watermark can never exceed the slow source's last emission
	// (20 ticks × 50ms = ~1s).
	last := wms[len(wms)-1]
	if last > simtime.Time(simtime.Sec(1)).Add(simtime.Ms(1)) {
		t.Fatalf("aligned watermark %v ran ahead of the slow source", last)
	}
}

type watermarkProbe struct {
	out *[]simtime.Time
}

func (p *watermarkProbe) OnRecord(dataflow.OpContext, *netsim.Record) {}
func (p *watermarkProbe) OnWatermark(_ dataflow.OpContext, wm simtime.Time) {
	*p.out = append(*p.out, wm)
}

func TestSlidingWindowFires(t *testing.T) {
	sink := newKeySink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(ctx dataflow.SourceContext) {
			var tick func(i int)
			tick = func(i int) {
				if i >= 100 {
					ctx.EmitWatermark(simtime.Time(1 << 50))
					return
				}
				ctx.Ingest(&netsim.Record{
					Key: uint64(i%4) + 1, EventTime: ctx.Now(),
					Size: 64, Value: float64(i),
				})
				ctx.EmitWatermark(ctx.Now() - simtime.Time(simtime.Ms(1)))
				ctx.After(simtime.Ms(10), func() { tick(i + 1) })
			}
			tick(0)
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "win", Parallelism: 2, KeyedInput: true, MaxKeyGroups: 8,
		CostPerRecord: simtime.Ms(0.01),
		NewLogic: func() dataflow.Logic {
			return &SlidingWindowLogic{Size: simtime.Ms(200), Slide: simtime.Ms(100)}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "sink", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return sink },
	})
	g.Connect("src", "win", dataflow.ExchangeKeyed)
	g.Connect("win", "sink", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 3, MarkerInterval: -1})
	rt.Start()
	rt.RunFor(simtime.Sec(5))
	if sink.Records == 0 {
		t.Fatal("no window emissions")
	}
	// Every key should have produced window outputs.
	for k := uint64(1); k <= 4; k++ {
		if _, ok := sink.byKey[k]; !ok {
			t.Fatalf("key %d fired no windows", k)
		}
	}
	// Window state should be trimmed, not grow forever.
	total := rt.TotalStateBytes("win")
	if total > 100*24*2 {
		t.Fatalf("window state not trimmed: %d bytes", total)
	}
}

func TestCheckpointCompletes(t *testing.T) {
	rt, _ := buildSimpleJob(t, 2, 3, 400)
	rt.Start()
	var doneAt simtime.Time
	var doneID int64
	rt.Sched.After(simtime.Ms(50), func() {
		id := rt.TriggerCheckpoint(func(id int64) {
			doneAt = rt.Sched.Now()
			doneID = id
		})
		if id != 1 {
			t.Fatalf("ckpt id %d", id)
		}
	})
	rt.RunFor(simtime.Sec(10))
	if doneID != 1 || doneAt == 0 {
		t.Fatal("checkpoint never completed")
	}
	if rt.CheckpointRunning() {
		t.Fatal("checkpoint still marked running")
	}
	// A second checkpoint should work after the first.
	var second bool
	rt.TriggerCheckpoint(func(int64) { second = true })
	rt.RunFor(simtime.Sec(5))
	if !second {
		t.Fatal("second checkpoint never completed")
	}
}

func TestCheckpointRejectsConcurrent(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 2000)
	rt.Start()
	rt.Sched.After(simtime.Ms(10), func() {
		if rt.TriggerCheckpoint(nil) == -1 {
			t.Fatal("first checkpoint refused")
		}
		if rt.TriggerCheckpoint(nil) != -1 {
			t.Fatal("concurrent checkpoint accepted")
		}
	})
	rt.RunFor(simtime.Ms(20))
}

// TestSourceDrainsInPlace checks that Ingest and EmitWatermark emit before
// they return when downstream capacity is free, with no wake event between,
// while a halted or data-paused source keeps what it was handed queued.
func TestSourceDrainsInPlace(t *testing.T) {
	cases := []struct {
		name             string
		gate             func(*Instance)
		afterRec, afterW int
	}{
		{"free", func(*Instance) {}, 0, 0},
		{"halted", func(in *Instance) { in.Halted = true }, 1, 2},
		// The watermark queues behind the held record: control passes a
		// paused source only in backlog order.
		{"paused", func(in *Instance) { in.PauseData = true }, 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ctx dataflow.SourceContext
			g := dataflow.NewGraph()
			g.AddOperator(&dataflow.OperatorSpec{
				Name: "src", Parallelism: 1,
				Source: func(sc dataflow.SourceContext) { ctx = sc },
			})
			g.AddOperator(&dataflow.OperatorSpec{
				Name: "sink", Parallelism: 1,
				NewLogic: func() dataflow.Logic { return NewCollectSink() },
			})
			g.Connect("src", "sink", dataflow.ExchangeRebalance)
			rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
			rt.Start()
			src := rt.Instance("src", 0)
			c.gate(src)
			r := ctx.NewRecord()
			r.Key, r.Size = 1, 64
			ctx.Ingest(r)
			if got := src.BacklogLen(); got != c.afterRec {
				t.Fatalf("backlog %d after Ingest, want %d", got, c.afterRec)
			}
			ctx.EmitWatermark(ctx.Now())
			if got := src.BacklogLen(); got != c.afterW {
				t.Fatalf("backlog %d after EmitWatermark, want %d", got, c.afterW)
			}
		})
	}
}

func TestBackpressurePropagatesToSource(t *testing.T) {
	// A very slow sink must throttle the source once the edge buffers fill.
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: fixedRateSource(5000, simtime.Ms(0.1), 8),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "slow", Parallelism: 1, KeyedInput: true, MaxKeyGroups: 8,
		CostPerRecord: simtime.Ms(5), // 200/s max against 10000/s offered
		NewLogic:      func() dataflow.Logic { return &KeyedReduceLogic{} },
	})
	g.Connect("src", "slow", dataflow.ExchangeKeyed)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 5, MarkerInterval: -1})
	rt.Start()
	rt.RunFor(simtime.Sec(2))
	src := rt.Instance("src", 0)
	if src.BacklogLen() < 1000 {
		t.Fatalf("backlog %d; backpressure did not throttle the source", src.BacklogLen())
	}
	slow := rt.Instance("slow", 0)
	if slow.Processed > 500 {
		t.Fatalf("slow op processed %d in 2s at 5ms/record", slow.Processed)
	}
}

func TestAddInstanceWiring(t *testing.T) {
	rt, _ := buildSimpleJob(t, 2, 3, 100)
	rt.Start()
	rt.RunFor(simtime.Ms(50))
	in := rt.AddInstance("agg", 3)
	if in.Name() != "agg[3]" {
		t.Fatalf("name %s", in.Name())
	}
	// Inputs: one edge from each of 2 source instances.
	if len(in.InEdges()) != 2 {
		t.Fatalf("inputs %d", len(in.InEdges()))
	}
	// Outputs: one edge to the sink.
	if len(in.OutEdges("sink")) != 1 {
		t.Fatalf("outputs %d", len(in.OutEdges("sink")))
	}
	// Each source instance now has 4 agg out-edges.
	for _, src := range rt.Instances("src") {
		if len(src.OutEdges("agg")) != 4 {
			t.Fatalf("src out edges %d", len(src.OutEdges("agg")))
		}
	}
	// New instance owns no key groups and receives no traffic yet.
	if in.Store().Len() != 0 {
		t.Fatal("new instance should own nothing")
	}
	rt.RunFor(simtime.Sec(5))
	if in.Processed != 0 {
		t.Fatalf("unrouted instance processed %d records", in.Processed)
	}
}

// TestAddInstanceCopiesKeyedRouting scales an operator whose output exchange
// is keyed: the new instance must route like its sibling A[0] — including a
// group A[0]'s table already repoints — through its own copy of the table.
func TestAddInstanceCopiesKeyedRouting(t *testing.T) {
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: fixedRateSource(10, simtime.Ms(1), 16),
	})
	for _, name := range []string{"a", "b"} {
		g.AddOperator(&dataflow.OperatorSpec{
			Name: name, Parallelism: 2, KeyedInput: true, MaxKeyGroups: 32,
			NewLogic: func() dataflow.Logic { return &KeyedReduceLogic{EmitUpdates: true} },
		})
	}
	g.Connect("src", "a", dataflow.ExchangeKeyed)
	g.Connect("a", "b", dataflow.ExchangeKeyed)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 7})
	sib := rt.Instance("a", 0).Routing("b")
	const kg = 3
	moved := 1 - sib.Owner(kg)
	sib.SetOwner(kg, moved)

	in := rt.AddInstance("a", 2)
	tbl := in.Routing("b")
	if tbl == nil || tbl == sib {
		t.Fatalf("new instance's table %p, sibling's %p: want its own copy", tbl, sib)
	}
	for k := 0; k < 32; k++ {
		if tbl.Owner(k) != sib.Owner(k) {
			t.Fatalf("kg %d routes to b[%d], sibling to b[%d]", k, tbl.Owner(k), sib.Owner(k))
		}
	}
	if tbl.Owner(kg) != moved {
		t.Fatalf("repointed kg %d routes to b[%d], want b[%d]", kg, tbl.Owner(kg), moved)
	}
	tbl.SetOwner(kg, 1-moved)
	if sib.Owner(kg) != moved {
		t.Fatal("writing the new instance's table changed its sibling's")
	}
}

func TestAddInstanceOutOfOrderPanics(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.AddInstance("agg", 5)
}

// gateHook blocks records of chosen key groups, for suspension testing.
type gateHook struct {
	BaseHook
	blocked map[int]bool
}

func (h *gateHook) Processable(_ *Instance, r *netsim.Record, _ *netsim.Edge) bool {
	return !h.blocked[r.KeyGroup]
}

func TestSuspensionAccountingViaHook(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 1, 200)
	agg := rt.Instance("agg", 0)
	hook := &gateHook{blocked: map[int]bool{}}
	for kg := 0; kg < 32; kg++ {
		hook.blocked[kg] = true // block everything
	}
	agg.SetHook(hook)
	rt.Start()
	rt.RunFor(simtime.Sec(1))
	if agg.Processed != 0 {
		t.Fatalf("blocked instance processed %d", agg.Processed)
	}
	if !agg.Suspended() {
		t.Fatal("instance should be suspended")
	}
	// Unblock: processing resumes and suspension closes.
	hook.blocked = map[int]bool{}
	agg.Wake()
	rt.RunFor(simtime.Sec(5))
	if agg.Processed == 0 {
		t.Fatal("instance never resumed")
	}
	rt.Scale.CloseAllSuspensions(rt.Sched.Now())
	if rt.Scale.CumulativeSuspension() < simtime.Ms(900) {
		t.Fatalf("suspension %v, want ≥900ms", rt.Scale.CumulativeSuspension())
	}
}

func TestRedirectPending(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 10)
	src := rt.Instance("src", 0)
	e0 := src.OutEdges("agg")[0]
	e1 := src.OutEdges("agg")[1]
	// Manufacture pending emissions directly, behind one already sent.
	src.pending = []pendingEmit{
		{},
		{edge: e0, msg: &netsim.Record{Key: 1, KeyGroup: 3}},
		{edge: e0, msg: &netsim.Record{Key: 2, KeyGroup: 4}},
	}
	src.pendHead = 1
	n := src.RedirectPending(e0, e1, func(r *netsim.Record) bool { return r.KeyGroup == 3 })
	if n != 1 {
		t.Fatalf("redirected %d", n)
	}
	if src.pending[1].edge != e1 || src.pending[2].edge != e0 {
		t.Fatal("wrong pending retargeting")
	}
}

// TestPendingKeepsItsBuffer: draining the blocked-emission queue advances a
// head index instead of reslicing, a queue left non-empty moves its live part
// to the front of the same buffer once the sent part is at least as long,
// and a queue that empties rewinds to the start of its buffer.
func TestPendingKeepsItsBuffer(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 10)
	src := rt.Instance("src", 0)
	ep := func(i int) netsim.Endpoint { return netsim.Endpoint{Op: "x", Index: i} }
	open := netsim.NewEdge(rt.Sched, ep(0), ep(1), netsim.EdgeConfig{})
	shut := netsim.NewEdge(rt.Sched, ep(0), ep(2), netsim.EdgeConfig{OutCap: 1, InCap: 1})
	for shut.TrySend(&netsim.Record{}) {
	}
	recs := make([]*netsim.Record, 5)
	for i := range recs {
		recs[i] = &netsim.Record{Key: uint64(i)}
	}
	src.pending = make([]pendingEmit, 0, 8)
	buf := &src.pending[:1][0]
	for i, r := range recs {
		e := open
		if i == 3 {
			e = shut
		}
		src.pending = append(src.pending, pendingEmit{edge: e, msg: r})
	}
	if src.drainPending() {
		t.Fatal("drained past an edge that refuses")
	}
	if src.PendingEmits() != 2 || src.pendHead != 0 || src.pending[0].msg != recs[3] || src.pending[1].msg != recs[4] {
		t.Fatalf("after three sends the queue is %d long at head %d, want records 3 and 4 moved to the front", src.PendingEmits(), src.pendHead)
	}
	if &src.pending[0] != buf || cap(src.pending) != 8 {
		t.Fatal("compaction left the queue's buffer")
	}
	if n := src.RedirectPending(shut, open, func(*netsim.Record) bool { return true }); n != 1 {
		t.Fatalf("redirected %d, want 1", n)
	}
	if !src.drainPending() || len(src.pending) != 0 || src.pendHead != 0 || cap(src.pending) != 8 {
		t.Fatalf("emptied queue: len %d head %d cap %d, want an empty queue on its own buffer", len(src.pending), src.pendHead, cap(src.pending))
	}
	rt.Sched.Run()
	if open.InboxLen() != len(recs) {
		t.Fatalf("open edge delivered %d records, want all %d", open.InboxLen(), len(recs))
	}
}

func TestHaltFreezesInstance(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 1, 500)
	agg := rt.Instance("agg", 0)
	rt.Start()
	rt.RunFor(simtime.Ms(50))
	before := agg.Processed
	agg.Halted = true
	rt.RunFor(simtime.Ms(200))
	if agg.Processed != before {
		t.Fatalf("halted instance processed %d more records", agg.Processed-before)
	}
	agg.Halted = false
	agg.Wake()
	rt.RunFor(simtime.Sec(5))
	if agg.Processed <= before {
		t.Fatal("instance never resumed after halt")
	}
}

func TestMarkerBypassesWindowing(t *testing.T) {
	// Markers must reach the sink even though the window operator only emits
	// on watermark firing.
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: fixedRateSource(50, simtime.Ms(5), 4),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "win", Parallelism: 1, KeyedInput: true, MaxKeyGroups: 8,
		NewLogic: func() dataflow.Logic {
			return &SlidingWindowLogic{Size: simtime.Sec(100), Slide: simtime.Sec(50)}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "sink", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return NewCollectSink() },
	})
	g.Connect("src", "win", dataflow.ExchangeKeyed)
	g.Connect("win", "sink", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 9, MarkerInterval: simtime.Ms(20)})
	rt.Start()
	rt.RunFor(simtime.Sec(1))
	// A marker leaves one latency sample when it reaches the sink.
	if rt.Latency.Series.Len() == 0 {
		t.Fatal("no markers reached the sink through the window operator")
	}
}

// TestBaseHookLeavesScaleBarriers: a hook that embeds BaseHook consumes no
// scale barrier, so the instance aligns and forwards one the default way.
func TestBaseHookLeavesScaleBarriers(t *testing.T) {
	pass := func() dataflow.Logic {
		return &MapLogic{Fn: func(r *netsim.Record) *netsim.Record { return r }}
	}
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(dataflow.SourceContext) {},
	})
	g.AddOperator(&dataflow.OperatorSpec{Name: "mid", Parallelism: 1, NewLogic: pass})
	g.AddOperator(&dataflow.OperatorSpec{Name: "sink", Parallelism: 1, NewLogic: pass})
	g.Connect("src", "mid", dataflow.ExchangeRebalance)
	g.Connect("mid", "sink", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	rt.Start()
	rt.Instance("mid", 0).SetHook(&gateHook{})
	sink := rt.Instance("sink", 0)
	sink.Halted = true

	rt.Instance("src", 0).BroadcastControl(&netsim.ScaleBarrier{ScaleID: 7, Round: 2})
	rt.Sched.Run()
	in := sink.InEdges()[0]
	if in.InboxLen() != 1 {
		t.Fatalf("sink inbox holds %d messages, want the forwarded barrier", in.InboxLen())
	}
	if b, ok := in.InboxAt(0).(*netsim.ScaleBarrier); !ok || b.ScaleID != 7 || b.Round != 2 {
		t.Fatalf("sink received %+v, want scale barrier 7 round 2", in.InboxAt(0))
	}
}
