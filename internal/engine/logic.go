package engine

import (
	"sort"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// This file is the operator-logic library: keyed running aggregation,
// event-time sliding windows, a windowed two-stream join, and collector
// sinks. These are the building blocks of the NEXMark, Twitch, and custom
// workloads.
//
// All of it runs on the typed record payload (Record.Value) and the state
// backend's float64 fast lane, so the steady-state record path performs no
// interface boxing.

// KeyedReduceLogic maintains a per-key float64 accumulator and emits the
// updated value per record. StateBytes is the accounted size per key
// (the custom workload's "state size" knob).
type KeyedReduceLogic struct {
	// Reduce folds a record's value into the accumulator (default: sum of
	// Record.Value).
	Reduce func(acc float64, r *netsim.Record) float64
	// StateBytes is the per-key accounted state size (default 64).
	StateBytes int
	// EmitUpdates controls whether each update is emitted downstream.
	EmitUpdates bool
}

// OnRecord implements dataflow.Logic.
func (l *KeyedReduceLogic) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	st := ctx.State()
	acc, _ := st.GetF64(r.Key)
	if l.Reduce != nil {
		acc = l.Reduce(acc, r)
	} else {
		acc += r.Value
	}
	sb := l.StateBytes
	if sb <= 0 {
		sb = 64
	}
	st.PutF64(r.Key, acc, sb)
	if l.EmitUpdates {
		out := ctx.NewRecord()
		out.Key = r.Key
		out.EventTime = r.EventTime
		out.IngestTime = r.IngestTime
		out.Seq = r.Seq
		out.Size = 32
		out.Value = acc
		ctx.Emit(out)
	}
}

// OnWatermark implements dataflow.Logic.
func (l *KeyedReduceLogic) OnWatermark(dataflow.OpContext, simtime.Time) {}

// windowPane is the per-key buffer of one sliding-window state value.
type windowPane struct {
	// Values holds (eventTime, value) pairs pending in open windows.
	Values []paneEntry
}

// CloneState implements state.Cloner: OnRecord and fireWindow change a
// pane's Values in place, so a checkpoint keeps its own copy.
func (p *windowPane) CloneState() any {
	return &windowPane{Values: append([]paneEntry(nil), p.Values...)}
}

type paneEntry struct {
	At simtime.Time
	V  float64
}

// SlidingWindowLogic is an event-time sliding-window aggregate: per key it
// buffers values and, on watermark advance, fires every window whose end has
// passed, emitting the max of each (key, window). Window state is keyed state
// and migrates with the key group, which is what gives NEXMark Q7/Q8 their
// large migrating state.
type SlidingWindowLogic struct {
	Size  simtime.Duration
	Slide simtime.Duration
	// BytesPerEntry accounts state growth (default 24).
	BytesPerEntry int

	lastFired simtime.Time
	inited    bool

	// Reusable scratch buffers keep window firing allocation-free in steady
	// state (one fire touches every key of every local group).
	keyScratch []uint64
	valScratch []float64
}

// OnRecord implements dataflow.Logic.
func (l *SlidingWindowLogic) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	var pane *windowPane
	if v, ok := ctx.State().Get(r.Key); ok {
		pane = v.(*windowPane)
	} else {
		pane = &windowPane{}
	}
	pane.Values = append(pane.Values, paneEntry{At: r.EventTime, V: r.Value})
	bpe := l.BytesPerEntry
	if bpe <= 0 {
		bpe = 24
	}
	ctx.State().Put(r.Key, pane, len(pane.Values)*bpe)
}

// OnWatermark implements dataflow.Logic.
func (l *SlidingWindowLogic) OnWatermark(ctx dataflow.OpContext, wm simtime.Time) {
	if !l.inited {
		// Start the firing grid at the first watermark: windows ending at or
		// before it are considered already fired (on a freshly scaled-in
		// instance they fired at the migration source).
		l.lastFired = wm
		l.inited = true
	}
	fire := func(end simtime.Time) { l.fireWindow(ctx, end) }
	l.lastFired = fireSlides(ctx, l.lastFired, wm, l.Slide, l.Size, fire)
}

// fireSlides fires every window end in (lastFired, wm] on the slide grid.
// When the watermark jumps by an enormous amount (stream flush), iterating
// every grid point would be unbounded, so it switches to firing only the
// candidate ends that can contain buffered entries.
func fireSlides(ctx dataflow.OpContext, lastFired, wm simtime.Time, slide, size simtime.Duration, fire func(simtime.Time)) simtime.Time {
	first := nextSlideEnd(lastFired, slide)
	if wm < first {
		return lastFired
	}
	const denseLimit = 1 << 14
	if (int64(wm)-int64(first))/int64(slide)+1 <= denseLimit {
		for end := first; end <= wm; end += simtime.Time(slide) {
			fire(end)
		}
	} else {
		for _, end := range candidateEnds(ctx, first, wm, slide, size) {
			fire(end)
		}
	}
	// Advance to the last grid point ≤ wm.
	return simtime.Time(int64(wm) / int64(slide) * int64(slide))
}

// candidateEnds returns the sorted slide-grid points in [first, wm] whose
// windows can be non-empty given the entries currently buffered in state.
func candidateEnds(ctx dataflow.OpContext, first, wm simtime.Time, slide, size simtime.Duration) []simtime.Time {
	ends := make(map[simtime.Time]struct{})
	st := ctx.State()
	addEntry := func(at simtime.Time) {
		// Non-empty ends for an entry at time t lie in (t, t+size].
		for end := nextSlideEnd(at, slide); end <= at.Add(size) && end <= wm; end += simtime.Time(slide) {
			if end >= first {
				ends[end] = struct{}{}
			}
		}
	}
	for _, kg := range st.Groups() {
		st.Group(kg).ForEach(func(_ uint64, value any, _ int) {
			switch v := value.(type) {
			case *windowPane:
				for _, pe := range v.Values {
					addEntry(pe.At)
				}
			case *joinState:
				for _, pe := range v.Left {
					addEntry(pe.At)
				}
				for _, pe := range v.Right {
					addEntry(pe.At)
				}
			}
		})
	}
	out := make([]simtime.Time, 0, len(ends))
	for e := range ends {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func nextSlideEnd(after simtime.Time, slide simtime.Duration) simtime.Time {
	if slide <= 0 {
		panic("engine: sliding window needs positive slide")
	}
	n := int64(after)/int64(slide) + 1
	return simtime.Time(n * int64(slide))
}

// sortedGroupKeys fills scratch with the group's keys in ascending order
// (window firing iterates keys deterministically and emission order is part
// of the engine's observable behaviour).
func sortedGroupKeys(g *state.Group, scratch []uint64) []uint64 {
	keys := g.AppendKeys(scratch[:0])
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (l *SlidingWindowLogic) fireWindow(ctx dataflow.OpContext, end simtime.Time) {
	start := end.Add(-l.Size)
	st := ctx.State()
	bpe := l.BytesPerEntry
	if bpe <= 0 {
		bpe = 24
	}
	for _, kg := range st.Groups() {
		g := st.Group(kg)
		l.keyScratch = sortedGroupKeys(g, l.keyScratch)
		for _, key := range l.keyScratch {
			v, _ := g.Get(key)
			pane := v.(*windowPane)
			vals := l.valScratch[:0]
			kept := pane.Values[:0]
			for _, pe := range pane.Values {
				if pe.At >= start && pe.At < end {
					vals = append(vals, pe.V)
				}
				// Entries older than the window start can never fire again.
				if pe.At >= start {
					kept = append(kept, pe)
				}
			}
			pane.Values = kept
			if len(pane.Values) == 0 {
				g.Delete(key)
			} else {
				g.Put(key, pane, len(pane.Values)*bpe)
			}
			if len(vals) == 0 {
				continue
			}
			agg := maxOf(vals)
			l.valScratch = vals[:0]
			out := ctx.NewRecord()
			out.Key = key
			out.EventTime = end
			out.Size = 32
			out.Value = agg
			ctx.Emit(out)
		}
	}
}

func maxOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// JoinSide tags records for WindowJoinLogic via Record.Aux (the typed-payload
// escape hatch: join inputs are the one stream shape that does not reduce to
// a single float64).
type JoinSide struct {
	Left  bool
	Value float64
}

// joinState buffers both sides per key.
type joinState struct {
	Left, Right []paneEntry
}

// CloneState implements state.Cloner: OnRecord and fire change both
// sides in place, so a checkpoint keeps its own copy.
func (js *joinState) CloneState() any {
	return &joinState{
		Left:  append([]paneEntry(nil), js.Left...),
		Right: append([]paneEntry(nil), js.Right...),
	}
}

// WindowJoinLogic joins two tagged streams per key over a sliding window:
// when a window fires, keys present on both sides emit a match (NEXMark Q8's
// persons⋈auctions shape).
type WindowJoinLogic struct {
	Size          simtime.Duration
	Slide         simtime.Duration
	BytesPerEntry int

	lastFired simtime.Time
	inited    bool

	keyScratch []uint64
}

// OnRecord implements dataflow.Logic.
func (l *WindowJoinLogic) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	var js *joinState
	if v, ok := ctx.State().Get(r.Key); ok {
		js = v.(*joinState)
	} else {
		js = &joinState{}
	}
	side, _ := r.Aux.(JoinSide)
	pe := paneEntry{At: r.EventTime, V: side.Value}
	if side.Left {
		js.Left = append(js.Left, pe)
	} else {
		js.Right = append(js.Right, pe)
	}
	bpe := l.BytesPerEntry
	if bpe <= 0 {
		bpe = 24
	}
	ctx.State().Put(r.Key, js, (len(js.Left)+len(js.Right))*bpe)
}

// OnWatermark implements dataflow.Logic.
func (l *WindowJoinLogic) OnWatermark(ctx dataflow.OpContext, wm simtime.Time) {
	if !l.inited {
		l.lastFired = wm
		l.inited = true
	}
	fire := func(end simtime.Time) { l.fire(ctx, end) }
	l.lastFired = fireSlides(ctx, l.lastFired, wm, l.Slide, l.Size, fire)
}

func (l *WindowJoinLogic) fire(ctx dataflow.OpContext, end simtime.Time) {
	start := end.Add(-l.Size)
	st := ctx.State()
	bpe := l.BytesPerEntry
	if bpe <= 0 {
		bpe = 24
	}
	for _, kg := range st.Groups() {
		g := st.Group(kg)
		l.keyScratch = sortedGroupKeys(g, l.keyScratch)
		for _, key := range l.keyScratch {
			v, _ := g.Get(key)
			js := v.(*joinState)
			inWin := func(es []paneEntry) int {
				n := 0
				for _, pe := range es {
					if pe.At >= start && pe.At < end {
						n++
					}
				}
				return n
			}
			nl, nr := inWin(js.Left), inWin(js.Right)
			if nl > 0 && nr > 0 {
				out := ctx.NewRecord()
				out.Key = key
				out.EventTime = end
				out.Size = 32
				out.Value = float64(nl * nr)
				ctx.Emit(out)
			}
			trim := func(es []paneEntry) []paneEntry {
				kept := es[:0]
				for _, pe := range es {
					if pe.At >= start {
						kept = append(kept, pe)
					}
				}
				return kept
			}
			js.Left, js.Right = trim(js.Left), trim(js.Right)
			if len(js.Left)+len(js.Right) == 0 {
				g.Delete(key)
			} else {
				g.Put(key, js, (len(js.Left)+len(js.Right))*bpe)
			}
		}
	}
}

// MapLogic applies a stateless transform and forwards.
type MapLogic struct {
	// Fn may mutate and return the record, or return nil to drop it.
	Fn func(r *netsim.Record) *netsim.Record
}

// OnRecord implements dataflow.Logic.
func (l *MapLogic) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	out := r
	if l.Fn != nil {
		out = l.Fn(r)
	}
	if out != nil {
		ctx.Emit(out)
	}
}

// OnWatermark implements dataflow.Logic.
func (l *MapLogic) OnWatermark(dataflow.OpContext, simtime.Time) {}

// CollectSink records everything that reaches it; correctness tests compare
// its contents across scaling mechanisms.
type CollectSink struct {
	// ByKey accumulates the sum of values per key.
	ByKey map[uint64]float64
	// Records counts total data records.
	Records int

	// seen and repeats are the exactly-once ledger: bit q of seen is set once
	// sequence number q has arrived, and repeats counts the arrivals that found
	// their bit already set. Sequence numbers are the runtime's dense counter
	// (Runtime.NextSeq), so the bitset costs one bit per record of the run.
	seen    []uint64
	repeats int
}

// NewCollectSink returns an empty sink.
func NewCollectSink() *CollectSink {
	return &CollectSink{ByKey: make(map[uint64]float64)}
}

// OnRecord implements dataflow.Logic.
func (s *CollectSink) OnRecord(_ dataflow.OpContext, r *netsim.Record) {
	s.Records++
	s.ByKey[r.Key] += r.Value
	if r.Seq != 0 {
		s.noteSeq(r.Seq)
	}
}

// noteSeq marks sequence number q seen, growing the bitset by doubling.
func (s *CollectSink) noteSeq(q uint64) {
	w := int(q >> 6)
	if w >= len(s.seen) {
		n := max(2*len(s.seen), 64)
		for n <= w {
			n *= 2
		}
		grown := make([]uint64, n)
		copy(grown, s.seen)
		s.seen = grown
	}
	bit := uint64(1) << (q & 63)
	if s.seen[w]&bit != 0 {
		s.repeats++
	}
	s.seen[w] |= bit
}

// OnWatermark implements dataflow.Logic.
func (s *CollectSink) OnWatermark(dataflow.OpContext, simtime.Time) {}

// Duplicates reports how many arrivals repeated a sequence number the sink
// had already seen (a number seen three times counts 2).
func (s *CollectSink) Duplicates() int { return s.repeats }

// Keyed state for SlidingWindowLogic and WindowJoinLogic flows through
// state.Store as *windowPane / *joinState aux payloads; KeyedReduceLogic
// rides the float64 fast lane. The library types satisfy dataflow.Logic.
var (
	_ dataflow.Logic = (*KeyedReduceLogic)(nil)
	_ dataflow.Logic = (*SlidingWindowLogic)(nil)
	_ dataflow.Logic = (*WindowJoinLogic)(nil)
	_ dataflow.Logic = (*MapLogic)(nil)
	_ dataflow.Logic = (*CollectSink)(nil)

	_ state.Cloner = (*windowPane)(nil)
	_ state.Cloner = (*joinState)(nil)
)
