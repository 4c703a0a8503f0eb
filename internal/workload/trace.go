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
// In memory each stream is already in the file's encoding, so a trace costs
// what it does on disk (about 6.6 bytes per recorded arrival), and Write only
// frames and checksums it.
type Trace struct {
	// SourceParallelism is the source instance count the trace was recorded
	// under. Replay re-partitions by cohort when the target differs.
	SourceParallelism int
	// streams holds each instance's arrivals with At relative to the
	// stream's start; a bounded stream ends with a single Stop event.
	streams []traceStream
}

// traceMagic identifies the format; the trailing byte is the version.
const traceMagic = "DRRSTRC\x01"

// Event flag bits in the encoded form.
const (
	tfStop  = 1 << 0
	tfValue = 1 << 1 // Value differs from the default 1.0 and is encoded
	tfSize  = 1 << 2 // Size differs from the default 100 and is encoded
)

// traceMaxEvents bounds the event count a stream header may declare before
// any checksum can vouch for it. Nothing is reserved per declared event:
// a stream's memory grows only as the file delivers its bytes.
const traceMaxEvents = 1 << 32

// A stream body lives in blocks that never split an event, so decoding needs
// no bounds juggling and growing a body copies nothing. Blocks double from
// traceBlockMin to traceBlockMax, which keeps a small stream small and a
// large one within one block of its encoded size.
const (
	traceBlockMin = 256
	traceBlockMax = 64 << 10
	// maxEventLen is the longest encoding of one event: four uvarints (the
	// At delta, Key, Cohort and Size), the flags byte and the 8-byte Value.
	maxEventLen = 4*binary.MaxVarintLen64 + 1 + 8
)

// traceStream is one instance's arrivals exactly as Write emits them: the
// delta-varint body plus the counts the header and Describe need.
type traceStream struct {
	blocks [][]byte
	n      int          // encoded events, Stop markers included
	data   int          // arrivals, Stop markers excluded
	last   simtime.Time // At of the last encoded event
	// bad is one plus the index of the first event whose At went backwards,
	// or 0. Such an event has no delta encoding, so the stream stops
	// encoding there and the trace cannot be written or replayed.
	bad int
}

// add encodes ev at the end of the stream.
func (s *traceStream) add(ev *Event) {
	if !ev.Stop {
		s.data++
	}
	if s.bad != 0 {
		return
	}
	if ev.At < s.last {
		s.bad = s.n + 1
		return
	}
	k := len(s.blocks)
	if k == 0 || cap(s.blocks[k-1])-len(s.blocks[k-1]) < maxEventLen {
		c := traceBlockMin
		if k > 0 {
			c = min(2*cap(s.blocks[k-1]), traceBlockMax)
		}
		s.blocks = append(s.blocks, make([]byte, 0, c))
		k++
	}
	s.blocks[k-1] = appendEvent(s.blocks[k-1], s.last, ev)
	s.last = ev.At
	s.n++
}

// appendEvent appends ev's encoding, its At a delta from prev <= ev.At. This
// is the trace format's one encoder: recording, Synthesize, re-partitioning
// and ReadTrace all build stream bodies through it, and Write emits them.
func appendEvent(b []byte, prev simtime.Time, ev *Event) []byte {
	b = binary.AppendUvarint(b, uint64(ev.At-prev))
	if ev.Stop {
		return append(b, tfStop)
	}
	flags := byte(0)
	if ev.Value != 1.0 {
		flags |= tfValue
	}
	if ev.Size != 100 {
		flags |= tfSize
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, ev.Key)
	b = binary.AppendUvarint(b, uint64(ev.Cohort))
	if flags&tfSize != 0 {
		b = binary.AppendUvarint(b, uint64(ev.Size))
	}
	if flags&tfValue != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.Value))
	}
	return b
}

// traceCursor decodes a stream body that appendEvent wrote, one event per
// next, with At relative to the stream's start.
type traceCursor struct {
	blocks [][]byte
	b, off int
	prev   simtime.Time
}

func (c *traceCursor) next(ev *Event) bool {
	for c.b < len(c.blocks) && c.off == len(c.blocks[c.b]) {
		c.b++
		c.off = 0
	}
	if c.b == len(c.blocks) {
		return false
	}
	blk := c.blocks[c.b][c.off:]
	delta, i := binary.Uvarint(blk)
	c.prev = c.prev.Add(simtime.Duration(delta))
	flags := blk[i]
	i++
	if flags == tfStop {
		*ev = Event{At: c.prev, Stop: true}
		c.off += i
		return true
	}
	key, k := binary.Uvarint(blk[i:])
	i += k
	cohort, k := binary.Uvarint(blk[i:])
	i += k
	*ev = Event{At: c.prev, Key: key, Size: 100, Value: 1.0, Cohort: uint32(cohort)}
	if flags&tfSize != 0 {
		size, k := binary.Uvarint(blk[i:])
		i += k
		ev.Size = int(size)
	}
	if flags&tfValue != 0 {
		ev.Value = math.Float64frombits(binary.LittleEndian.Uint64(blk[i:]))
		i += 8
	}
	c.off += i
	return true
}

// Events counts the data events (excluding Stop markers) across all streams.
func (t *Trace) Events() int {
	n := 0
	for i := range t.streams {
		n += t.streams[i].data
	}
	return n
}

// check reports why the trace cannot be written or replayed, if it cannot.
func (t *Trace) check() error {
	if t.SourceParallelism <= 0 || len(t.streams) != t.SourceParallelism {
		return fmt.Errorf("workload: trace has %d streams for source parallelism %d",
			len(t.streams), t.SourceParallelism)
	}
	for i := range t.streams {
		if bad := t.streams[i].bad; bad != 0 {
			return fmt.Errorf("workload: trace stream not time-ordered at event %d", bad-1)
		}
	}
	return nil
}

// Write encodes the trace: magic+version, the source parallelism, then each
// stream's event count and delta-encoded events, then an FNV-1a checksum of
// everything after the magic.
func (t *Trace) Write(w io.Writer) error {
	if err := t.check(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	hw := &sumWriter{w: bw, sum: fnvOffset}
	hw.uvarint(uint64(t.SourceParallelism))
	for i := range t.streams {
		st := &t.streams[i]
		hw.uvarint(uint64(st.n))
		for _, b := range st.blocks {
			hw.write(b)
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
// re-encodes to the same bytes, and each validated event is kept by encoding
// it again.
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
		t.streams = append(t.streams, traceStream{})
		st := &t.streams[s]
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
				st.add(&Event{At: prev, Stop: true})
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
			st.add(&ev)
		}
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

func (h *sumWriter) write(p []byte) {
	for _, b := range p {
		h.sum = (h.sum ^ uint64(b)) * fnvPrime
	}
	if h.err == nil {
		_, h.err = h.w.Write(p)
	}
}

func (h *sumWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	h.write(binary.AppendUvarint(buf[:0], v))
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
// preserved inside each instance. It panics on a trace Write would refuse.
func Replay(t *Trace) Traffic {
	if t == nil {
		panic("workload: Replay needs a non-nil Trace")
	}
	if err := t.check(); err != nil {
		panic(err)
	}
	return replayTraffic{t: t}
}

type replayTraffic struct{ t *Trace }

func (rt replayTraffic) Describe() string {
	var end simtime.Time
	for i := range rt.t.streams {
		end = max(end, rt.t.streams[i].last)
	}
	return fmt.Sprintf("replay: %d events over %d streams, %v recorded",
		rt.t.Events(), rt.t.SourceParallelism, simtime.Duration(end))
}

func (rt replayTraffic) Stream(instance, parallelism int, start simtime.Time) Stream {
	if parallelism == rt.t.SourceParallelism {
		return &replayStream{cur: traceCursor{blocks: rt.t.streams[instance].blocks}, start: start}
	}
	return rt.repartition(instance, parallelism, start)
}

// repartition merges the recorded streams by (At, stream) and keeps the
// arrivals whose cohort routes to this instance, ending with a Stop at the
// latest recorded stop time. That Stop is held beside the body: when streams
// stop at different times it may fall before the last arrival, which has no
// delta encoding.
func (rt replayTraffic) repartition(instance, parallelism int, start simtime.Time) *replayStream {
	streams := rt.t.streams
	curs := make([]traceCursor, len(streams))
	heads := make([]Event, len(streams))
	live := make([]bool, len(streams))
	for s := range streams {
		curs[s].blocks = streams[s].blocks
		live[s] = curs[s].next(&heads[s])
	}
	var out traceStream
	rs := &replayStream{start: start}
	for {
		best := -1
		for s := range heads {
			if live[s] && (best < 0 || heads[s].At < heads[best].At) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		ev := heads[best]
		live[best] = curs[best].next(&heads[best])
		if ev.Stop {
			rs.stop = max(rs.stop, ev.At)
			rs.held = true
			continue
		}
		if int(ev.Cohort)%parallelism == instance {
			out.add(&ev)
		}
	}
	rs.cur.blocks = out.blocks
	return rs
}

// replayStream replays a stream body, then the held Stop if there is one,
// re-anchoring times at start.
type replayStream struct {
	cur   traceCursor
	start simtime.Time
	stop  simtime.Time // At of the held Stop
	held  bool
}

func (s *replayStream) Next(ev *Event) bool {
	if !s.cur.next(ev) {
		if !s.held {
			return false
		}
		s.held = false
		*ev = Event{At: s.stop, Stop: true}
	}
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
		// The run's first stream: its instances share what the run builds.
		r.inner = forRun(r.inner)
		r.trace.SourceParallelism = parallelism
		r.trace.streams = make([]traceStream, parallelism)
	}
	return &teeStream{
		inner: r.inner.Stream(instance, parallelism, start),
		rec:   &r.trace.streams[instance],
		start: start,
	}
}

// Trace returns the recording; call after the run has drained the streams.
func (r *Recorder) Trace() *Trace { return &r.trace }

type teeStream struct {
	inner Stream
	rec   *traceStream
	start simtime.Time
}

func (s *teeStream) Next(ev *Event) bool {
	if !s.inner.Next(ev) {
		return false
	}
	rel := *ev
	rel.At = simtime.Time(ev.At.Sub(s.start))
	s.rec.add(&rel)
	return true
}

// Synthesize drains a bounded Traffic's streams directly — no simulation —
// into the Trace a run over the same (traffic, parallelism) would consume.
// Unbounded traffic would never return; callers pass Specs with a Duration.
func Synthesize(traffic Traffic, parallelism int) *Trace {
	t := &Trace{SourceParallelism: parallelism, streams: make([]traceStream, parallelism)}
	traffic = forRun(traffic)
	for i := range t.streams {
		st := traffic.Stream(i, parallelism, 0)
		var ev Event
		for st.Next(&ev) {
			t.streams[i].add(&ev)
		}
	}
	return t
}
