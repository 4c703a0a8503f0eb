package workload

import (
	"bytes"
	"encoding/binary"
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
	if err := (&Trace{SourceParallelism: 1, Streams: [][]Event{{
		{At: 5, Key: 300, Cohort: 2, Size: 7, Value: 1},
		{At: 9, Key: 1, Size: 100, Value: -2.5},
		{At: 9, Key: 2, Size: 0, Value: 0},
		{At: 12, Stop: true},
	}}}).Write(&flags); err != nil {
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
