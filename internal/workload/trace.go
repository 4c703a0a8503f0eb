package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"drrs/internal/simtime"
)

// Trace is a recorded arrival-stream set: exactly what a run's source
// instances consumed, in a versioned format that round-trips bit-for-bit.
// Replaying a Trace against the same job reproduces the run's OutcomeDigest.
type Trace struct {
	// SourceParallelism is the source instance count the trace was recorded
	// under. Replay re-partitions by cohort when the target differs.
	SourceParallelism int
	// Streams holds each instance's arrivals with At relative to the
	// stream's start; a bounded stream ends with a single Stop event.
	Streams [][]Event
}

// traceMagic identifies the format; the trailing byte is the version.
const traceMagic = "DRRSTRC\x01"

// Event flag bits in the encoded form.
const (
	tfStop  = 1 << 0
	tfValue = 1 << 1 // Value differs from the default 1.0 and is encoded
	tfSize  = 1 << 2 // Size differs from the default 100 and is encoded
)

// Bounds on what a trace header may declare before any checksum can vouch
// for it. A stream longer than traceMaxEvents is rejected outright; one
// shorter is believed only up to tracePrealloc events of reserved memory
// (40 MB — every trace this repo writes decodes in one allocation), beyond
// which the slice grows as the file actually delivers events.
const (
	traceMaxEvents = 1 << 32
	tracePrealloc  = 1 << 20
)

// Events counts the data events (excluding Stop markers) across all streams.
func (t *Trace) Events() int {
	n := 0
	for _, st := range t.Streams {
		for i := range st {
			if !st[i].Stop {
				n++
			}
		}
	}
	return n
}

// Write encodes the trace: magic+version, then per-stream delta-encoded
// events, then an FNV-1a checksum of everything after the magic.
func (t *Trace) Write(w io.Writer) error {
	if t.SourceParallelism <= 0 || len(t.Streams) != t.SourceParallelism {
		return fmt.Errorf("workload: trace has %d streams for source parallelism %d",
			len(t.Streams), t.SourceParallelism)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	hw := &sumWriter{w: bw, sum: fnvOffset}
	hw.uvarint(uint64(t.SourceParallelism))
	for _, st := range t.Streams {
		hw.uvarint(uint64(len(st)))
		prev := simtime.Time(0)
		for i := range st {
			ev := &st[i]
			if ev.At < prev {
				return fmt.Errorf("workload: trace stream not time-ordered at event %d", i)
			}
			hw.uvarint(uint64(ev.At - prev))
			prev = ev.At
			if ev.Stop {
				hw.byte(tfStop)
				continue
			}
			flags := byte(0)
			if ev.Value != 1.0 {
				flags |= tfValue
			}
			if ev.Size != 100 {
				flags |= tfSize
			}
			hw.byte(flags)
			hw.uvarint(ev.Key)
			hw.uvarint(uint64(ev.Cohort))
			if flags&tfSize != 0 {
				hw.uvarint(uint64(ev.Size))
			}
			if flags&tfValue != 0 {
				hw.u64(math.Float64bits(ev.Value))
			}
		}
	}
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], hw.sum)
	if hw.err == nil {
		_, hw.err = bw.Write(foot[:])
	}
	if hw.err != nil {
		return hw.err
	}
	return bw.Flush()
}

// ReadTrace decodes a trace written by Write, verifying version and checksum.
// It accepts only Write's own encoding — minimal varints, no default Value or
// Size spelled out, nothing after the footer — so a trace that decodes
// re-encodes to the same bytes.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if string(magic[:7]) != traceMagic[:7] {
		return nil, fmt.Errorf("workload: not a drrs trace file")
	}
	if magic[7] != traceMagic[7] {
		return nil, fmt.Errorf("workload: unsupported trace version %d (this build reads %d)",
			magic[7], traceMagic[7])
	}
	hr := &sumReader{r: br, sum: fnvOffset}
	p := int(hr.uvarint())
	if hr.err == nil && (p <= 0 || p > 1<<20) {
		return nil, fmt.Errorf("workload: trace declares implausible parallelism %d", p)
	}
	t := &Trace{SourceParallelism: p}
	for s := 0; s < p && hr.err == nil; s++ {
		n := hr.uvarint()
		if hr.err == nil && n > traceMaxEvents {
			return nil, fmt.Errorf("workload: trace stream %d declares implausible length %d", s, n)
		}
		st := make([]Event, 0, min(n, tracePrealloc))
		prev := simtime.Time(0)
		stopped := false
		for i := uint64(0); i < n && hr.err == nil; i++ {
			delta := hr.uvarint()
			if delta > uint64(math.MaxInt64-prev) {
				return nil, fmt.Errorf("workload: trace stream %d overflows the clock at event %d", s, i)
			}
			prev = prev.Add(simtime.Duration(delta))
			flags := hr.byte()
			if stopped {
				return nil, fmt.Errorf("workload: trace stream %d has events after its stop marker", s)
			}
			if flags == tfStop {
				st = append(st, Event{At: prev, Stop: true})
				stopped = true
				continue
			}
			if flags&^(tfValue|tfSize) != 0 {
				return nil, fmt.Errorf("workload: trace uses unknown event flags 0x%x (newer writer?)", flags)
			}
			ev := Event{At: prev, Key: hr.uvarint(), Size: 100, Value: 1.0}
			cohort := hr.uvarint()
			if cohort > math.MaxUint32 {
				return nil, fmt.Errorf("workload: trace stream %d event %d has cohort %d", s, i, cohort)
			}
			ev.Cohort = uint32(cohort)
			if flags&tfSize != 0 {
				size := hr.uvarint()
				if size > math.MaxInt || size == 100 {
					return nil, fmt.Errorf("workload: trace stream %d event %d encodes size %d", s, i, size)
				}
				ev.Size = int(size)
			}
			if flags&tfValue != 0 {
				if ev.Value = math.Float64frombits(hr.u64()); ev.Value == 1.0 {
					return nil, fmt.Errorf("workload: trace stream %d event %d encodes the default value", s, i)
				}
			}
			st = append(st, ev)
		}
		t.Streams = append(t.Streams, st)
	}
	if hr.err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", hr.err)
	}
	sum := hr.sum
	var foot [8]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(foot[:]); got != sum {
		return nil, fmt.Errorf("workload: trace checksum mismatch (file corrupt?)")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("workload: trailing data after the trace checksum")
	}
	return t, nil
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile reads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// fnvOffset/fnvPrime are FNV-1a constants (matching the digest elsewhere in
// the repo).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// sumWriter folds every written byte into an FNV-1a sum, capturing the first
// error so encode loops stay branch-light.
type sumWriter struct {
	w   *bufio.Writer
	sum uint64
	err error
}

func (h *sumWriter) byte(b byte) {
	h.sum = (h.sum ^ uint64(b)) * fnvPrime
	if h.err == nil {
		h.err = h.w.WriteByte(b)
	}
}

func (h *sumWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	for _, b := range buf[:n] {
		h.byte(b)
	}
}

func (h *sumWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for _, b := range buf {
		h.byte(b)
	}
}

// sumReader mirrors sumWriter for decoding.
type sumReader struct {
	r   *bufio.Reader
	sum uint64
	err error
}

func (h *sumReader) byte() byte {
	if h.err != nil {
		return 0
	}
	b, err := h.r.ReadByte()
	if err != nil {
		h.err = err
		return 0
	}
	h.sum = (h.sum ^ uint64(b)) * fnvPrime
	return b
}

func (h *sumReader) uvarint() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b := h.byte()
		if h.err != nil {
			return 0
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break // bits past the 64th
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if b == 0 && i > 0 {
				h.err = fmt.Errorf("uvarint is not minimally encoded")
				return 0
			}
			return v
		}
		shift += 7
	}
	h.err = fmt.Errorf("uvarint overflows 64 bits")
	return 0
}

func (h *sumReader) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = h.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Replay builds Traffic that feeds a recorded Trace back verbatim. When the
// job's source parallelism matches the recording, each instance replays its
// exact stream; otherwise arrivals are re-partitioned by cohort (cohort i
// feeds instance i mod parallelism, matching Live) with recorded order
// preserved inside each instance.
func Replay(t *Trace) Traffic {
	if t == nil {
		panic("workload: Replay needs a non-nil Trace")
	}
	return replayTraffic{t: t}
}

type replayTraffic struct{ t *Trace }

func (rt replayTraffic) Describe() string {
	var end simtime.Time
	for _, st := range rt.t.Streams {
		if n := len(st); n > 0 && st[n-1].At > end {
			end = st[n-1].At
		}
	}
	return fmt.Sprintf("replay: %d events over %d streams, %v recorded",
		rt.t.Events(), rt.t.SourceParallelism, simtime.Duration(end))
}

func (rt replayTraffic) Stream(instance, parallelism int, start simtime.Time) Stream {
	if parallelism == rt.t.SourceParallelism {
		return &sliceStream{events: rt.t.Streams[instance], start: start}
	}
	return &sliceStream{events: rt.repartition(instance, parallelism), start: start}
}

// repartition merges the recorded streams by (At, stream) and keeps the
// arrivals whose cohort routes to this instance, ending with a Stop at the
// latest recorded stop time.
func (rt replayTraffic) repartition(instance, parallelism int) []Event {
	idx := make([]int, len(rt.t.Streams))
	var out []Event
	var stopAt simtime.Time
	sawStop := false
	for {
		best := -1
		for s, st := range rt.t.Streams {
			if idx[s] >= len(st) {
				continue
			}
			if best < 0 || st[idx[s]].At < rt.t.Streams[best][idx[best]].At {
				best = s
			}
		}
		if best < 0 {
			break
		}
		ev := rt.t.Streams[best][idx[best]]
		idx[best]++
		if ev.Stop {
			if ev.At > stopAt {
				stopAt = ev.At
			}
			sawStop = true
			continue
		}
		if int(ev.Cohort)%parallelism == instance {
			out = append(out, ev)
		}
	}
	if sawStop {
		out = append(out, Event{At: stopAt, Stop: true})
	}
	return out
}

// sliceStream replays a recorded event slice, re-anchoring times at start.
type sliceStream struct {
	events []Event
	start  simtime.Time
	next   int
}

func (s *sliceStream) Next(ev *Event) bool {
	if s.next >= len(s.events) {
		return false
	}
	*ev = s.events[s.next]
	s.next++
	ev.At = s.start.Add(simtime.Duration(ev.At))
	return true
}

// Recorder tees a Traffic's streams into an in-memory Trace as a run pulls
// them: wrap the traffic, run once, then Trace() holds exactly what the
// sources consumed. One recorder serves one run.
type Recorder struct {
	inner Traffic
	trace Trace
}

// NewRecorder wraps inner so its streams are recorded as they are consumed.
func NewRecorder(inner Traffic) *Recorder {
	return &Recorder{inner: inner}
}

func (r *Recorder) Describe() string { return "record(" + r.inner.Describe() + ")" }

func (r *Recorder) Stream(instance, parallelism int, start simtime.Time) Stream {
	if r.trace.SourceParallelism == 0 {
		r.trace.SourceParallelism = parallelism
		r.trace.Streams = make([][]Event, parallelism)
	}
	return &teeStream{
		inner: r.inner.Stream(instance, parallelism, start),
		rec:   &r.trace.Streams[instance],
		start: start,
	}
}

// Trace returns the recording; call after the run has drained the streams.
func (r *Recorder) Trace() *Trace { return &r.trace }

type teeStream struct {
	inner Stream
	rec   *[]Event
	start simtime.Time
}

func (s *teeStream) Next(ev *Event) bool {
	if !s.inner.Next(ev) {
		return false
	}
	stored := *ev
	stored.At = simtime.Time(stored.At.Sub(s.start))
	*s.rec = append(*s.rec, stored)
	return true
}

// Synthesize drains a bounded Traffic's streams directly — no simulation —
// into the Trace a run over the same (traffic, parallelism) would consume.
// Unbounded traffic would never return; callers pass Specs with a Duration.
func Synthesize(traffic Traffic, parallelism int) *Trace {
	t := &Trace{SourceParallelism: parallelism, Streams: make([][]Event, parallelism)}
	for i := 0; i < parallelism; i++ {
		st := traffic.Stream(i, parallelism, 0)
		var ev Event
		for st.Next(&ev) {
			t.Streams[i] = append(t.Streams[i], ev)
		}
	}
	return t
}
