package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"drrs/internal/simtime"
)

// FuzzReadTrace: any byte string either fails to decode with an error or
// decodes to a trace that Write turns back into exactly those bytes. Every
// input is tried twice, as given and with its footer recomputed, so the
// fuzzer explores the body's structure instead of stopping at the checksum.
func FuzzReadTrace(f *testing.F) {
	// The header that once panicked makeslice: one stream of 2^62 events.
	f.Add(binary.AppendUvarint(append([]byte(traceMagic), 1), 1<<62))
	// A small recorded stream: two source streams of mixed cohorts, each
	// ending in a Stop marker.
	var rec bytes.Buffer
	if err := Synthesize(Live(seamSpec(5, simtime.Ms(40))), 2).Write(&rec); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	// The optional Size and Value fields, which recorded traffic leaves at
	// their defaults.
	var flags bytes.Buffer
	if err := traceOf([]Event{
		{At: 5, Key: 300, Cohort: 2, Size: 7, Value: 1},
		{At: 9, Key: 1, Size: 100, Value: -2.5},
		{At: 9, Key: 2, Size: 0, Value: 0},
		{At: 12, Stop: true},
	}).Write(&flags); err != nil {
		f.Fatal(err)
	}
	f.Add(flags.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		if len(data) >= len(traceMagic)+8 {
			roundTrip(t, withFooter(data))
		}
	})
}

// roundTrip decodes data and, when that succeeds, requires re-encoding to
// reproduce it byte for byte.
func roundTrip(t *testing.T, data []byte) {
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := tr.Write(&out); err != nil {
		t.Fatalf("decoded trace does not re-encode: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("decode then encode changed the file:\n in  %x\n out %x", data, out.Bytes())
	}
}

// withFooter returns a copy of data whose last 8 bytes are the checksum
// Write would append to everything between the magic and the footer.
func withFooter(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := out[len(traceMagic) : len(out)-8]
	sum := uint64(fnvOffset)
	for _, b := range body {
		sum = (sum ^ uint64(b)) * fnvPrime
	}
	binary.LittleEndian.PutUint64(out[len(out)-8:], sum)
	return out
}

// FuzzTraceEncode checks the encoded trace against the representation it
// replaced: every stream kept as a []Event by a tee, written by an encoder
// of its own, and re-partitioned over those slices. For any recorded event
// sequence, replay at the recorded and at another parallelism must yield the
// reference's events, Write must emit the reference's bytes (and re-encode a
// decoded file to the same bytes), and a backwards At must fail Write with
// the reference's error.
func FuzzTraceEncode(f *testing.F) {
	f.Add([]byte{0, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x21, 4})
	f.Add([]byte{2, 1, 200, 0x01, 0, 0x1e, 7, 0xff, 0xff, 0xff, 0xff, 0, 0, 0x7f, 0xf8, 1, 0x23, 0})
	f.Add([]byte{1, 4, 0, 0xc0, 9, 0x41, 3, 0x80, 0, 0xe1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		p := 1 + int(in.byte()%4)
		q := 1 + int(in.byte()%5)
		if q == p {
			q = p + 1
		}
		start := simtime.Time(in.byte()) * 1000
		streams := fuzzStreams(&in, p)

		src := eventTraffic(streams)
		rec := NewRecorder(src)
		ref := make([][]Event, p)
		for i := 0; i < p; i++ {
			got := drain(rec.Stream(i, p, start))
			want := drain(refTee{inner: src.Stream(i, p, start), rec: &ref[i], start: start})
			if !sameEvents(got, want) {
				t.Fatalf("stream %d: recording changed what the run consumed", i)
			}
		}
		tr := rec.Trace()

		refFile, refErr := refWrite(p, ref)
		var buf bytes.Buffer
		err := tr.Write(&buf)
		if refErr != nil {
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("Write error %v, reference %v", err, refErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), refFile) {
			t.Fatalf("Write differs from the reference encoder:\n got %x\nwant %x", buf.Bytes(), refFile)
		}
		if n := len(dropStops(slices.Concat(ref...))); tr.Events() != n {
			t.Fatalf("Events() = %d, reference has %d arrivals", tr.Events(), n)
		}
		roundTrip(t, buf.Bytes())

		const again = simtime.Time(7_000_000)
		for _, par := range []int{p, q} {
			rp := Replay(tr)
			for i := 0; i < par; i++ {
				want := ref[i%p]
				if par != p {
					want = refRepartition(ref, i, par)
				}
				want = slices.Clone(want)
				for k := range want {
					want[k].At = again.Add(simtime.Duration(want[k].At))
				}
				if got := drain(rp.Stream(i, par, again)); !sameEvents(got, want) {
					t.Fatalf("replay at parallelism %d (recorded %d), instance %d:\n got %+v\nwant %+v", par, p, i, got, want)
				}
			}
		}
	})
}

// fuzzInput hands out the fuzzer's bytes, then zeros once they run out.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(in.byte()) << (8 * i)
	}
	return v
}

// fuzzStreams builds p streams from the input, one op byte per event: its
// low bits pick the stream, bit 5 makes it the stream's Stop marker, bits 6
// and 7 together step its At backwards, and the next bytes pick the At step,
// Key, Cohort (up to MaxUint32), Size and Value (NaN payloads, -0, any bits).
func fuzzStreams(in *fuzzInput, p int) [][]Event {
	streams := make([][]Event, p)
	at := make([]simtime.Time, p)
	stopped := make([]bool, p)
	for n := 0; len(*in) > 0 && n < 256; n++ {
		op := in.byte()
		s := int(op&0x1f) % p
		if stopped[s] {
			continue
		}
		step := simtime.Time(in.byte())
		if step == 0xff {
			step = simtime.Time(in.u64() >> 8)
		}
		if op&0xc0 == 0xc0 {
			at[s] -= 1 + step
		} else {
			at[s] += step
		}
		if op&0x20 != 0 {
			streams[s] = append(streams[s], Event{At: at[s], Stop: true})
			stopped[s] = true
			continue
		}
		ev := Event{At: at[s], Key: uint64(in.byte()), Size: 100, Value: 1}
		shape := in.byte()
		if shape&1 != 0 {
			ev.Key = in.u64()
		}
		switch shape >> 1 & 3 {
		case 1:
			ev.Cohort = uint32(in.byte())
		case 2:
			ev.Cohort = math.MaxUint32
		case 3:
			ev.Cohort = uint32(in.u64())
		}
		if shape&8 != 0 {
			ev.Size = int(in.u64() >> 24)
		}
		switch shape >> 4 & 3 {
		case 1:
			ev.Value = math.Float64frombits(0x7ff8000000000000 | in.u64()>>13)
		case 2:
			ev.Value = math.Copysign(0, -1)
		case 3:
			ev.Value = math.Float64frombits(in.u64())
		}
		streams[s] = append(streams[s], ev)
	}
	return streams
}

// eventTraffic serves fixed per-instance events, At anchored at start.
type eventTraffic [][]Event

func (et eventTraffic) Describe() string { return "fixed events" }

func (et eventTraffic) Stream(instance, _ int, start simtime.Time) Stream {
	evs := slices.Clone(et[instance])
	for k := range evs {
		evs[k].At = start.Add(simtime.Duration(evs[k].At))
	}
	return &refStream{events: evs}
}

// refStream yields a slice of events.
type refStream struct {
	events []Event
	next   int
}

func (s *refStream) Next(ev *Event) bool {
	if s.next >= len(s.events) {
		return false
	}
	*ev = s.events[s.next]
	s.next++
	return true
}

// refTee is the reference recorder: it keeps each consumed event, At made
// relative to start, in a growing slice.
type refTee struct {
	inner Stream
	rec   *[]Event
	start simtime.Time
}

func (s refTee) Next(ev *Event) bool {
	if !s.inner.Next(ev) {
		return false
	}
	stored := *ev
	stored.At = simtime.Time(stored.At.Sub(s.start))
	*s.rec = append(*s.rec, stored)
	return true
}

// refWrite is the reference encoder over event slices: the format written
// out field by field.
func refWrite(p int, streams [][]Event) ([]byte, error) {
	body := binary.AppendUvarint(nil, uint64(p))
	for _, st := range streams {
		body = binary.AppendUvarint(body, uint64(len(st)))
		prev := simtime.Time(0)
		for i, ev := range st {
			if ev.At < prev {
				return nil, fmt.Errorf("workload: trace stream not time-ordered at event %d", i)
			}
			body = binary.AppendUvarint(body, uint64(ev.At-prev))
			prev = ev.At
			if ev.Stop {
				body = append(body, tfStop)
				continue
			}
			flags := byte(0)
			if ev.Value != 1.0 {
				flags |= tfValue
			}
			if ev.Size != 100 {
				flags |= tfSize
			}
			body = append(body, flags)
			body = binary.AppendUvarint(body, ev.Key)
			body = binary.AppendUvarint(body, uint64(ev.Cohort))
			if flags&tfSize != 0 {
				body = binary.AppendUvarint(body, uint64(ev.Size))
			}
			if flags&tfValue != 0 {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(ev.Value))
			}
		}
	}
	out := append([]byte(traceMagic), body...)
	return withFooter(append(out, make([]byte, 8)...)), nil
}

// refRepartition is the reference re-partition over event slices: merge by
// (At, stream), keep the arrivals whose cohort routes to instance, end with
// a Stop at the latest recorded stop.
func refRepartition(streams [][]Event, instance, parallelism int) []Event {
	idx := make([]int, len(streams))
	var out []Event
	var stopAt simtime.Time
	sawStop := false
	for {
		best := -1
		for s, st := range streams {
			if idx[s] < len(st) && (best < 0 || st[idx[s]].At < streams[best][idx[best]].At) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		ev := streams[best][idx[best]]
		idx[best]++
		if ev.Stop {
			stopAt = max(stopAt, ev.At)
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

// sameEvents compares event lists field by field, Value by its bits.
func sameEvents(a, b []Event) bool {
	return slices.EqualFunc(a, b, func(x, y Event) bool {
		vx, vy := x.Value, y.Value
		x.Value, y.Value = 0, 0
		return x == y && math.Float64bits(vx) == math.Float64bits(vy)
	})
}

// TestReadTraceLyingHeaderAllocs: a header declaring 2^32-1 events over a
// body that stops after two of them is an error, and reading it costs memory
// in proportion to the bytes given, not to the count declared.
func TestReadTraceLyingHeaderAllocs(t *testing.T) {
	file := binary.AppendUvarint(append([]byte(traceMagic), 1), 1<<32-1)
	file = append(file, 5, 0, 9, 1, 3, 0, 2, 1, 7) // two events, then a cut
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a stream whose declared events are missing")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("reading a %d-byte lying header allocated %d bytes, want < 64 KB", len(file), got)
	}
}
