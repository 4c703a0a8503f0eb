package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// sourceRig builds src → sink over one rebalance channel and starts it. The
// source does nothing on its own: the test drives it through the returned
// context. The sink discards what it applies.
func sourceRig() (*Runtime, *Instance, dataflow.SourceContext) {
	discard := func() dataflow.Logic {
		return &MapLogic{Fn: func(*netsim.Record) *netsim.Record { return nil }}
	}
	var ctx dataflow.SourceContext
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(sc dataflow.SourceContext) { ctx = sc },
	})
	g.AddOperator(&dataflow.OperatorSpec{Name: "sink", Parallelism: 1, NewLogic: discard})
	g.Connect("src", "sink", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	rt.Start()
	return rt, rt.Instance("src", 0), ctx
}

// TestSourceBacklogRoundTrip: records with every field preset (ingest time
// and sequence number included, so ingest stamps nothing), interleaved with
// a checkpoint barrier and a watermark and held behind PauseData the way
// Stop-Checkpoint-Restart holds them, leave the source in order with every
// field unchanged. The sink is halted, so its inbox keeps what arrived.
func TestSourceBacklogRoundTrip(t *testing.T) {
	rt, src, ctx := sourceRig()
	in := rt.Instance("sink", 0).InEdges()[0]
	rt.Instance("sink", 0).Halted = true
	recs := []netsim.Record{
		{Key: 11, EventTime: 100, IngestTime: 90, Seq: 1001, Size: 120, Value: 1.5},
		{Key: 12, EventTime: 110, IngestTime: 95, Seq: 1002, Size: 150, Value: -2.25, Aux: "left"},
		{Key: 13, IngestTime: 97, Seq: 1003, Size: 32, Marker: true},
		{Key: 14, EventTime: 130, IngestTime: 99, Seq: 1004, Size: 1 << 20, Value: 7, Aux: JoinSide{Left: true, Value: 3}, Marker: true},
		{Key: 15, EventTime: 140, IngestTime: 99, Seq: 1005, Value: 0.125},
	}
	ingest := func(i int) {
		r := ctx.NewRecord()
		*r = recs[i]
		ctx.Ingest(r)
	}

	// r0 leaves at once; the source pauses right behind the barrier, so r1
	// and everything after it wait, the watermark included.
	ingest(0)
	id := rt.TriggerCheckpoint(nil)
	src.PauseAfterCkpt = id
	ingest(1)
	ctx.EmitWatermark(120)
	for i := 2; i < len(recs); i++ {
		ingest(i)
	}
	rt.Sched.Run()
	if !src.PauseData {
		t.Fatal("the source did not pause at its checkpoint barrier")
	}
	if got, want := src.BacklogLen(), len(recs); got != want {
		t.Fatalf("paused backlog holds %d entries, want %d", got, want)
	}
	if got := in.InboxLen(); got != 2 {
		t.Fatalf("%d messages left the paused source, want the first record and the barrier", got)
	}

	src.PauseData = false
	src.Wake()
	rt.Sched.Run()
	if got := src.BacklogLen(); got != 0 {
		t.Fatalf("%d entries still queued after the source resumed", got)
	}
	var want []netsim.Message
	want = append(want, &recs[0], &netsim.CheckpointBarrier{ID: id}, &recs[1], &netsim.Watermark{WM: 120})
	for i := 2; i < len(recs); i++ {
		want = append(want, &recs[i])
	}
	if got := in.InboxLen(); got != len(want) {
		t.Fatalf("sink inbox holds %d messages, want %d", got, len(want))
	}
	for i, w := range want {
		got := in.InboxAt(i)
		switch w := w.(type) {
		case *netsim.Record:
			r, ok := got.(*netsim.Record)
			if !ok || *r != *w {
				t.Fatalf("message %d = %+v, want record %+v", i, got, *w)
			}
		case *netsim.CheckpointBarrier:
			if b, ok := got.(*netsim.CheckpointBarrier); !ok || b.ID != w.ID {
				t.Fatalf("message %d = %+v, want checkpoint barrier %d", i, got, w.ID)
			}
		case *netsim.Watermark:
			if m, ok := got.(*netsim.Watermark); !ok || m.WM != w.WM {
				t.Fatalf("message %d = %+v, want watermark %v", i, got, w.WM)
			}
		}
	}
}

// sourceBurst returns one burst-and-drain cycle at a source: with data
// paused, that many records (every tenth carrying an Aux) pile up in the
// backlog; then the source resumes and the run drains them all into the
// sink.
func sourceBurst(arrivals int) func() {
	rt, src, ctx := sourceRig()
	tag := any(JoinSide{Left: true})
	return func() {
		src.PauseData = true
		now := ctx.Now()
		for i := 0; i < arrivals; i++ {
			r := ctx.NewRecord()
			r.Key, r.EventTime, r.Size, r.Value = uint64(i%97)+1, now, 64, float64(i)
			if i%10 == 0 {
				r.Aux = tag
			}
			ctx.Ingest(r)
		}
		if src.BacklogLen() != arrivals {
			panic("the paused source emitted data")
		}
		src.PauseData = false
		src.Wake()
		rt.Sched.Run()
		if src.BacklogLen() != 0 {
			panic("the burst did not drain")
		}
	}
}

// TestSourceBacklogBurstAllocs: once warm, a burst of 1 000 arrivals that
// piles up in a paused source's backlog and then drains allocates nothing.
// The queued arrivals hold no pooled records, and the backlog's segments go
// back to the run's free chain and come out again for the next burst.
func TestSourceBacklogBurstAllocs(t *testing.T) {
	burst := sourceBurst(1000)
	burst()
	if avg := testing.AllocsPerRun(20, burst); avg != 0 {
		t.Fatalf("a burst-and-drain cycle of 1000 arrivals allocates %.2f objects, want 0", avg)
	}
}
