package engine

import (
	"math"
	"testing"
	"unsafe"

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
// field unchanged. Some fit a 32-byte entry; others must wait whole in the
// side lane: an event time other than the ingest time (or, for a marker,
// other than 0), a Seq of 2^32 or more, a Size outside [0, 2^24). The sink
// is halted, so its inbox keeps what arrived.
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
		{Key: 16, EventTime: 150, IngestTime: 150, Seq: 1006, Size: 64, Value: 2.5, Aux: "right"},
		{Key: 17, EventTime: 160, IngestTime: 160, Seq: 1<<32 + 5, Size: 64},
		{Key: 18, EventTime: 170, IngestTime: 170, Seq: 1008, Size: 1 << 24},
		{Key: 19, EventTime: 175, IngestTime: 180, Seq: 1009, Size: 64},
		{Key: 20, EventTime: 185, IngestTime: 185, Seq: 1010, Size: 32, Marker: true},
		{Key: 21, EventTime: 190, IngestTime: 190, Seq: 1<<32 - 1, Size: 1<<24 - 1, Value: 3},
	}
	// While paused, the side lane holds records 1, 3, 4 and 6 to 9 whole
	// and record 5's Aux.
	const wantSide = 8
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
	if got := src.src.side.Len(); got != wantSide {
		t.Fatalf("paused side lane holds %d entries, want %d", got, wantSide)
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
	checkInbox(t, in, want)
}

// checkInbox fails t unless in's inbox holds want in order: records equal
// field for field (Value bit for bit), barriers by id, watermarks by time.
func checkInbox(t *testing.T, in *netsim.Edge, want []netsim.Message) {
	t.Helper()
	if got := in.InboxLen(); got != len(want) {
		t.Fatalf("sink inbox holds %d messages, want %d", got, len(want))
	}
	for i, w := range want {
		got := in.InboxAt(i)
		switch w := w.(type) {
		case *netsim.Record:
			r, ok := got.(*netsim.Record)
			if !ok || !sameRecord(*r, *w) {
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

// sameRecord compares every field, Value by its bits so that a NaN payload
// equals itself.
func sameRecord(a, b netsim.Record) bool {
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		return false
	}
	a.Value, b.Value = 0, 0
	return a == b
}

// TestArrivalLayout pins the backlog entry at 32 bytes, so that a segment of
// netsim's 63-entry deque (TestDequeSegmentSizeClass pins the length) with
// its link takes 2 024 bytes, inside the 2 KB allocation size class.
func TestArrivalLayout(t *testing.T) {
	if size := unsafe.Sizeof(arrival{}); size != 32 {
		t.Fatalf("a backlog entry takes %d bytes, want 32", size)
	}
	if seg := 63*unsafe.Sizeof(arrival{}) + unsafe.Sizeof(uintptr(0)); seg > 2048 {
		t.Fatalf("a backlog segment takes %d bytes, over the 2 KB size class", seg)
	}
}

// FuzzSourceBacklog pushes arbitrary records, watermarks and checkpoint
// barriers behind a paused source, then resumes it: only the control
// messages ahead of the first record may leave while it is paused, and
// after it resumes the sink's inbox holds every message in order, each
// record field for field as it was ingested.
//
// Each step's first byte picks a record (0), a watermark (1) or a barrier
// (2). A record's flags byte sets Marker (bit 0), an Aux (bits 1-2), an
// event time equal to what the entry implies (bit 3), and a 32-bit Seq
// and Size (bits 4 and 5); the other fields are 8-byte literals.
func FuzzSourceBacklog(f *testing.F) {
	f.Add([]byte{0, 8, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{
		2, 0, 0x39, 5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0,
		1, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0x0b, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9,
		2, 0, 0x3e, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
	})
	f.Add([]byte{0, 0x10, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSourceBacklog(t, data)
	})
}

func checkSourceBacklog(t *testing.T, data []byte) {
	rt, src, ctx := sourceRig()
	sink := rt.Instance("sink", 0)
	sink.Halted = true
	in := sink.InEdges()[0]
	src.PauseData = true

	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	next64 := func(n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(next()) << (8 * i)
		}
		return v
	}
	auxes := [4]any{nil, "left", JoinSide{Left: true, Value: 3}, nil}

	var want []netsim.Message
	lead := -1 // messages ahead of the first record
	var ckpt int64
	// At most edgeCap messages, so that the halted sink's channel holds them
	// all and none waits as a blocked emission.
	for steps := 0; pos < len(data) && steps < edgeCap; steps++ {
		switch next() % 3 {
		case 0:
			flags := next()
			r := netsim.Record{
				Key:        next64(8),
				IngestTime: simtime.Time(next64(8)),
				Marker:     flags&1 != 0,
				Aux:        auxes[flags>>1&3],
			}
			if flags&8 != 0 {
				if !r.Marker {
					r.EventTime = r.IngestTime
				}
			} else {
				r.EventTime = simtime.Time(next64(8))
			}
			if flags&16 != 0 {
				r.Seq = next64(4)
			} else {
				r.Seq = next64(8)
			}
			if flags&32 != 0 {
				r.Size = int(int32(next64(4)))
			} else {
				r.Size = int(next64(8))
			}
			r.Value = math.Float64frombits(next64(8))
			w := r
			if w.IngestTime == 0 {
				w.IngestTime = ctx.Now()
			}
			if w.Seq == 0 {
				w.Seq = rt.recSeq + 1
			}
			if lead < 0 {
				lead = len(want)
			}
			p := ctx.NewRecord()
			*p = r
			ctx.Ingest(p)
			want = append(want, &w)
		case 1:
			wm := simtime.Time(next64(8))
			ctx.EmitWatermark(wm)
			want = append(want, &netsim.Watermark{WM: wm})
		case 2:
			ckpt++
			src.sourceEmitBarrier(&netsim.CheckpointBarrier{ID: ckpt})
			want = append(want, &netsim.CheckpointBarrier{ID: ckpt})
		}
	}
	if lead < 0 {
		lead = len(want)
	}
	rt.Sched.Run()
	if got := in.InboxLen(); got != lead {
		t.Fatalf("%d messages left the paused source, want the %d ahead of the first record", got, lead)
	}
	if got := src.BacklogLen(); got != len(want)-lead {
		t.Fatalf("paused backlog holds %d entries, want %d", got, len(want)-lead)
	}

	src.PauseData = false
	src.Wake()
	rt.Sched.Run()
	if src.BacklogLen() != 0 || src.src.side.Len() != 0 {
		t.Fatalf("%d entries and %d side-lane entries queued after the source resumed", src.BacklogLen(), src.src.side.Len())
	}
	checkInbox(t, in, want)
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
