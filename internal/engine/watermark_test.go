package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// legacyAlign is the alignment scan Instance.onWatermark ran over a plain
// per-slot slice before wmSlots, verbatim: it returns the new aligned
// watermark and whether it advanced past curWM.
func legacyAlign(wms []simtime.Time, curWM simtime.Time) (simtime.Time, bool) {
	min := simtime.Time(-1)
	for _, wm := range wms {
		if wm == wmUnset {
			return curWM, false // some channel has no watermark yet
		}
		if min == -1 || wm < min {
			min = wm
		}
	}
	if min > curWM {
		return min, true
	}
	return curWM, false
}

// FuzzWatermarkAlign decodes bytes into attaches, seeds, watermarks and
// detaches on one instance's input channels, and checks after every
// operation that the aligned watermark, whether it advanced, and every
// slot's value match a slice model aligned by legacyAlign; and that wmSlots'
// counters and minimum match a recount of its slots.
//
// Operations (one opcode byte each, arguments follow):
//
//	0  attach: a re-route channel (seeded 1<<62) or a new predecessor
//	   instance's channel (unset), by the argument's parity
//	1  SeedWatermark(channel, value)
//	2  onWatermark(channel, value)
//	3  DetachInput(channel)
//
// A channel byte indexes the live channels followed by the detached ones, so
// every per-channel operation also reaches stale edges. A value is -1, 1<<62,
// the aligned watermark -4..+4, the channel's own value (a repeat), or a
// 16-bit literal.
func FuzzWatermarkAlign(f *testing.F) {
	// The steps of TestWatermarkAlignmentAcrossAttachSeedDetach.
	f.Add([]byte{
		2, 0, 4, 0, 10, 2, 1, 4, 0, 20, 0, 0, 2, 0, 4, 0, 30, 0, 1,
		2, 1, 4, 0, 40, 1, 3, 0, 2, 1, 4, 0, 41, 2, 3, 4, 0, 35,
		1, 3, 4, 0, 99, 2, 0, 4, 0, 50, 3, 2, 2, 2, 4, 0, 60,
		2, 3, 4, 3, 232, 3, 1, 2, 0, 4, 0, 51,
	})
	// Equal and repeated values, then the last slot at the minimum leaving it.
	f.Add([]byte{2, 0, 4, 0, 7, 2, 1, 4, 0, 7, 2, 1, 3, 2, 0, 2, 8, 2, 1, 2, 8, 2, 0, 4, 0, 9})
	// A -1 in the last slot, then raised; a detach of the slot at the minimum.
	f.Add([]byte{0, 1, 1, 2, 0, 2, 0, 4, 0, 5, 2, 1, 4, 0, 6, 2, 2, 4, 0, 9, 3, 0, 2, 1, 4, 0, 12})
	// A -1 seed ahead of a later channel: the minimum restarts behind it.
	f.Add([]byte{0, 1, 1, 2, 0, 0, 1, 2, 0, 4, 0, 5, 2, 1, 4, 0, 6, 2, 3, 4, 0, 9, 2, 2, 4, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWatermarkAlign(t, data)
	})
}

func checkWatermarkAlign(t *testing.T, data []byte) {
	rt, in := fanInRig(2)
	live := append([]*netsim.Edge(nil), in.ins...)
	vals := []simtime.Time{wmUnset, wmUnset}
	var stale []*netsim.Edge
	cur := simtime.Time(-1)

	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	// channel picks a live (slot >= 0) or detached (slot -1) channel.
	channel := func() (*netsim.Edge, int) {
		n := len(live) + len(stale)
		if n == 0 {
			return nil, -1
		}
		i := next() % n
		if i < len(live) {
			return live[i], i
		}
		return stale[i-len(live)], -1
	}
	value := func(slot int) simtime.Time {
		switch next() % 5 {
		case 0:
			return -1
		case 1:
			return simtime.Time(1) << 62
		case 2:
			return cur + simtime.Time(next()%9) - 4
		case 3:
			if slot >= 0 && vals[slot] != wmUnset {
				return vals[slot]
			}
			return simtime.Time(next())
		default:
			return simtime.Time(next()<<8 | next())
		}
	}

	for step := 0; pos < len(data); step++ {
		op := next() % 4
		before := in.curWM
		advanced := false
		switch op {
		case 0:
			if len(live) >= 64 {
				continue
			}
			if next()%2 == 0 {
				live = append(live, rt.ConnectInstances(rt.Instance("src", 0), in))
				vals = append(vals, simtime.Time(1)<<62)
			} else {
				rt.AddInstance("src", len(rt.instances["src"]))
				live = append(live, in.ins[len(in.ins)-1])
				vals = append(vals, wmUnset)
			}
		case 1:
			e, s := channel()
			if e == nil {
				continue
			}
			v := value(s)
			in.SeedWatermark(e, v)
			if s >= 0 && vals[s] == wmUnset {
				vals[s] = v
			}
		case 2:
			e, s := channel()
			if e == nil {
				continue
			}
			v := value(s)
			in.onWatermark(&netsim.Watermark{WM: v}, e)
			if s >= 0 {
				vals[s] = v
			}
			cur, advanced = legacyAlign(vals, cur)
		case 3:
			e, s := channel()
			if e == nil {
				continue
			}
			rt.DetachInput(in, e)
			if s >= 0 {
				live = append(live[:s], live[s+1:]...)
				vals = append(vals[:s], vals[s+1:]...)
				stale = append(stale, e)
			}
		}
		if in.curWM != cur || (in.curWM != before) != advanced {
			t.Fatalf("step %d (op %d): watermark %v (was %v), model %v advanced=%v; slots %v",
				step, op, in.curWM, before, cur, advanced, vals)
		}
		checkSlots(t, step, &in.wm, vals)
	}
}

// checkSlots compares w's slots with the model's and its counters and
// minimum with a recount.
func checkSlots(t *testing.T, step int, w *wmSlots, vals []simtime.Time) {
	t.Helper()
	if len(w.v) != len(vals) {
		t.Fatalf("step %d: %d slots, model %d", step, len(w.v), len(vals))
	}
	unset, neg1, atMin := 0, 0, 0
	var min simtime.Time
	for i, x := range vals {
		if w.v[i] != x {
			t.Fatalf("step %d: slot %d holds %v, model %v", step, i, w.v[i], x)
		}
		switch {
		case x == wmUnset:
			unset++
			continue
		case x == -1:
			neg1++
		}
		switch {
		case atMin == 0 || x < min:
			min, atMin = x, 1
		case x == min:
			atMin++
		}
	}
	if w.unset != unset || w.neg1 != neg1 || w.atMin != atMin || (atMin > 0 && w.min != min) {
		t.Fatalf("step %d: unset %d neg1 %d min %v×%d, recount %d %d %v×%d",
			step, w.unset, w.neg1, w.min, w.atMin, unset, neg1, min, atMin)
	}
}

// fanOutRig builds src → fan → sink×width: the source's watermarks reach the
// one fan instance, and each advance there goes out once to every sink. It
// returns the source's context and a cycle that emits the next watermark and
// runs until every sink has taken it.
func fanOutRig(width int) (*Runtime, func()) {
	var ctx dataflow.SourceContext
	discard := func() dataflow.Logic {
		return &MapLogic{Fn: func(*netsim.Record) *netsim.Record { return nil }}
	}
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{Name: "src", Parallelism: 1, Source: func(sc dataflow.SourceContext) { ctx = sc }})
	g.AddOperator(&dataflow.OperatorSpec{Name: "fan", Parallelism: 1, NewLogic: discard})
	g.AddOperator(&dataflow.OperatorSpec{Name: "sink", Parallelism: width, NewLogic: discard})
	g.Connect("src", "fan", dataflow.ExchangeRebalance)
	g.Connect("fan", "sink", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	rt.Start()
	var wm simtime.Time
	return rt, func() {
		wm += 10
		ctx.EmitWatermark(wm)
		rt.Sched.Run()
		for _, in := range rt.Instances("sink") {
			if in.curWM != wm {
				panic("a sink did not take the watermark")
			}
		}
	}
}

// TestWatermarkBroadcastAllocs: once warm, a watermark emitted by a source,
// advanced at an instance with 128 output edges, broadcast and taken by all
// 128 receivers allocates nothing: one pooled watermark per advance serves
// every edge and returns to the run's pool after the last receiver read it.
func TestWatermarkBroadcastAllocs(t *testing.T) {
	rt, cycle := fanOutRig(128)
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("a watermark broadcast-and-receive cycle over 128 edges allocates %.2f objects, want 0", avg)
	}
	// The fan instance puts the source's watermark back before it
	// broadcasts its own advance, which reuses it: one watermark serves both
	// hops.
	if n := rt.wmPool.Len(); n != 1 {
		t.Fatalf("the pool holds %d watermarks after the cycles, want 1", n)
	}
}

// TestWatermarkHolds: a watermark sent down k edges goes back to the pool
// only after the k-th receiver has read it, and until then every receiver
// still reads the value it was sent. A watermark built outside the pool is
// never recycled.
func TestWatermarkHolds(t *testing.T) {
	const k = 4
	rt, _ := fanOutRig(k)
	fan := rt.Instance("fan", 0)
	sinks := rt.Instances("sink")
	for _, in := range sinks {
		in.Halted = true
	}
	fan.broadcastWatermark(42)
	rt.Sched.Run()
	var w *netsim.Watermark
	for i, in := range sinks {
		e := in.InEdges()[0]
		m, ok := e.InboxAt(0).(*netsim.Watermark)
		if !ok || m.WM != 42 {
			t.Fatalf("sink %d: inbox head %+v, want the watermark 42", i, e.InboxAt(0))
		}
		if w == nil {
			w = m
		} else if m != w {
			t.Fatalf("sink %d received a watermark of its own; want one shared by every edge", i)
		}
	}
	for i, in := range sinks {
		if n := rt.wmPool.Len(); n != 0 {
			t.Fatalf("the watermark went back to the pool after %d of %d receivers read it", i, k)
		}
		e := in.InEdges()[0]
		if m := e.PopInbox().(*netsim.Watermark); m.WM != 42 {
			t.Fatalf("receiver %d of %d reads %v, want 42", i+1, k, m.WM)
		}
		in.onWatermark(w, e)
		if in.curWM != 42 {
			t.Fatalf("receiver %d of %d aligned to %v, want 42", i+1, k, in.curWM)
		}
	}
	if n := rt.wmPool.Len(); n != 1 {
		t.Fatalf("the pool holds %d watermarks after all %d receivers read it, want 1", n, k)
	}
	if got := rt.wmPool.Get(43, 1); got != w {
		t.Fatal("the next watermark is a new one, not the recycled one")
	}

	own := &netsim.Watermark{WM: 50}
	in := sinks[0]
	in.onWatermark(own, in.InEdges()[0])
	if n := rt.wmPool.Len(); n != 0 || own.WM != 50 || in.curWM != 50 {
		t.Fatalf("a watermark built outside the pool: pool %d, value %v, aligned %v; want 0, 50, 50", n, own.WM, in.curWM)
	}
}
