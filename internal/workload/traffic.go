package workload

import (
	"fmt"

	"drrs/internal/dataflow"
	"drrs/internal/simtime"
)

// Event is one arrival in a traffic stream: what reaches a source instance at
// At. A Stop event carries no record; it marks the stream's bounded end (the
// source emits a final watermark there and quits).
type Event struct {
	At     simtime.Time
	Key    uint64
	Size   int
	Value  float64
	Cohort uint32
	Stop   bool
}

// Stream yields one source instance's arrivals in nondecreasing At order.
// Next fills ev and reports whether an event was produced; after a Stop event
// (or on an exhausted unbounded stream) it returns false forever.
type Stream interface {
	Next(ev *Event) bool
}

// Traffic produces per-instance arrival streams. Stream is called once per
// source instance at job start; implementations partition their load across
// [0, parallelism) instances and anchor event times at start. All randomness
// must come from named simtime.NewRNG streams so runs replay bit-for-bit.
type Traffic interface {
	Stream(instance, parallelism int, start simtime.Time) Stream
	// Describe returns a one-line human summary for scenario listings.
	Describe() string
}

// forRun returns the traffic one run's source instances draw from. Traffic
// whose streams share run-wide state (Classic's Zipf table) builds that state
// here, so it lives and dies with the run rather than with each stream or
// with the scenario that holds the traffic.
func forRun(t Traffic) Traffic {
	if r, ok := t.(interface{ forRun() Traffic }); ok {
		return r.forRun()
	}
	return t
}

// watermarkEvery is the sources' watermark cadence.
const watermarkEvery = 100 * simtime.Millisecond

// driveSource adapts a Traffic onto the engine's source API. One re-armed
// pump walks the stream: each firing ingests the due record (which drains in
// place) and stamps watermark crossings every watermarkEvery.
func driveSource(traffic Traffic) dataflow.SourceFunc {
	traffic = forRun(traffic)
	return func(ctx dataflow.SourceContext) {
		start := ctx.Now()
		st := traffic.Stream(ctx.InstanceIndex(), ctx.Parallelism(), start)

		var (
			cur    Event
			curWM  bool
			nextWM simtime.Time
		)
		// advance pulls the next arrival and precomputes its watermark flag;
		// crossings are a pure function of arrival order, so flagging at pull
		// time equals flagging at emit time.
		advance := func() bool {
			if !st.Next(&cur) {
				return false
			}
			curWM = false
			if !cur.Stop && cur.At >= nextWM {
				curWM = true
				nextWM = cur.At.Add(watermarkEvery)
			}
			return true
		}
		if !advance() {
			return
		}
		var pump func()
		pump = func() {
			now := ctx.Now()
			if cur.Stop {
				ctx.EmitWatermark(now)
				return
			}
			r := ctx.NewRecord()
			r.Key = cur.Key
			r.EventTime = now
			r.Size = cur.Size
			r.Value = cur.Value
			ctx.Ingest(r)
			if curWM {
				ctx.EmitWatermark(now)
			}
			if !advance() {
				return
			}
			ctx.After(cur.At.Sub(now), pump)
		}
		if d := cur.At.Sub(start); d > 0 {
			ctx.After(d, pump)
		} else {
			pump()
		}
	}
}

// genBatch is how many emissions the classic stream precomputes per refill:
// large enough to amortize the refill and keep the RNG/shape math off the
// per-wake path, small enough that a mid-run rate change (shapes are pure
// functions of arrival time, so precomputation is exact) costs no extra
// memory to speak of.
const genBatch = 256

// genEvent is one precomputed classic-stream emission.
type genEvent struct {
	at  simtime.Time
	key uint64
	// stop marks the deadline tick.
	stop bool
}

// ClassicSpec parameterizes Classic traffic. Like JobConfig it defaults
// nothing: every field is used verbatim.
type ClassicSpec struct {
	// Keys is the key-space size.
	Keys int
	// RatePerSec is the per-source-instance input rate (records/s).
	RatePerSec float64
	// Skew is the Zipf skewness over keys (paper: 0, 0.5, 1.0, 1.5).
	Skew float64
	// Shape programs rate phases and hot-key drift over the run; the zero
	// Shape is the classic flat load.
	Shape Shape
	// Duration bounds generation; 0 generates forever.
	Duration simtime.Duration
	// Seed drives the generators.
	Seed int64
}

// Classic is the original single-generator traffic: Zipf-keyed records at the
// shape-modulated per-instance rate with ±5% interarrival jitter. Every
// source instance draws the same seeded sequence, anchored at its own start,
// so instances started together emit identical streams; each instance still
// generates its copy itself. A run's instances share one Zipf table, built
// with the run's graph (BuildJob), never held by the Classic value.
// Panics on an empty key space or a non-positive rate.
func Classic(cfg ClassicSpec) Traffic {
	if cfg.Keys <= 0 {
		panic("workload: ClassicSpec.Keys must be > 0")
	}
	if cfg.RatePerSec <= 0 {
		panic("workload: ClassicSpec.RatePerSec must be > 0")
	}
	return classicTraffic{cfg: cfg}
}

type classicTraffic struct{ cfg ClassicSpec }

func (c classicTraffic) Describe() string {
	d := fmt.Sprintf("zipf(s=%g) over %d keys @ %g rec/s per source", c.cfg.Skew, c.cfg.Keys, c.cfg.RatePerSec)
	if s := c.cfg.Shape.String(); s != "" {
		d += ", " + s
	}
	return d
}

// Stream serves a caller outside a run with a table of the stream's own.
func (c classicTraffic) Stream(instance, parallelism int, start simtime.Time) Stream {
	return c.forRun().Stream(instance, parallelism, start)
}

func (c classicTraffic) forRun() Traffic {
	return classicRun{classicTraffic: c, zipf: simtime.NewZipfTable(c.cfg.Keys, c.cfg.Skew)}
}

// classicRun is Classic traffic bound to one run: every stream it makes
// samples from its one Zipf table.
type classicRun struct {
	classicTraffic
	zipf *simtime.ZipfTable
}

func (c classicRun) Stream(instance, parallelism int, start simtime.Time) Stream {
	cfg := c.cfg
	s := &classicStream{
		cfg:      cfg,
		rng:      simtime.NewRNG(cfg.Seed, "workload/gen"),
		zipf:     simtime.NewZipfFrom(simtime.NewRNG(cfg.Seed, "workload/zipf"), c.zipf),
		start:    start,
		deadline: -1,
		events:   make([]genEvent, 0, genBatch),
	}
	if cfg.Duration > 0 {
		s.deadline = start.Add(cfg.Duration)
	}
	s.fill(start)
	return s
}

// classicStream precomputes arrivals one genBatch at a time, drawing the RNG
// in exactly the per-tick order (zipf rank, then period jitter) of the
// timer-per-record loop the batching replaced.
type classicStream struct {
	cfg      ClassicSpec
	rng      *simtime.RNG
	zipf     *simtime.Zipf
	start    simtime.Time
	deadline simtime.Time
	events   []genEvent
	next     int
	tailAt   simtime.Time // where the batch after this one starts
	done     bool         // a stop event has been yielded
}

func (s *classicStream) fill(t simtime.Time) {
	s.events = s.events[:0]
	s.next = 0
	for len(s.events) < genBatch {
		if s.deadline >= 0 && t >= s.deadline {
			s.events = append(s.events, genEvent{at: t, stop: true})
			return
		}
		el := t.Sub(s.start)
		// Key 0 is reserved; ranks shift by 1.
		ev := genEvent{at: t, key: uint64(s.cfg.Shape.MapRank(s.zipf.Next(), el, s.cfg.Keys)) + 1}
		s.events = append(s.events, ev)
		period := simtime.Duration(float64(simtime.Second) / (s.cfg.RatePerSec * s.cfg.Shape.FactorAt(el)))
		t = t.Add(s.rng.Jitter(period, 0.05))
	}
	s.tailAt = t
}

func (s *classicStream) Next(ev *Event) bool {
	if s.done {
		return false
	}
	if s.next == len(s.events) {
		s.fill(s.tailAt)
	}
	ge := s.events[s.next]
	s.next++
	if ge.stop {
		s.done = true
		*ev = Event{At: ge.at, Stop: true}
		return true
	}
	*ev = Event{At: ge.at, Key: ge.key, Size: 100, Value: 1.0}
	return true
}
