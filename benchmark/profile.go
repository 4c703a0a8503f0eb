package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzip-compressed protobuf (pprof's profile.proto). The
// rollup needs four of its tables — samples, locations, functions and the
// string table — so this file decodes exactly those with a hand-rolled wire
// reader instead of shelling out to `go tool pprof`: a prebuilt benchmark
// binary then works on a box without the toolchain.

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	val   uint64
	bytes []byte
}

var errTruncated = errors.New("truncated protobuf")

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbRepeatedUvarint reads a repeated integer field that may arrive packed
// (one length-delimited blob) or unpacked (one varint per occurrence).
func pbRepeatedUvarint(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// profSample is one stack with its CPU nanoseconds; Stack lists function
// names leaf first, inlined frames expanded.
type profSample struct {
	Stack []string
	Nanos int64
}

// parseProfile decodes a runtime/pprof CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		rawStacks [][]uint64
		rawValues [][]uint64
		nTypes    int
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, fmt.Errorf("profile sample: %w", err)
			}
			var locs, vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if locs, err = pbRepeatedUvarint(locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbRepeatedUvarint(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			rawStacks = append(rawStacks, locs)
			rawValues = append(rawValues, vals)
		case 4: // location
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, fmt.Errorf("profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.val
				case 4: // line; the first entry is the innermost inlined frame
					ls, err := pbFields(lf.bytes)
					if err != nil {
						return nil, fmt.Errorf("profile line: %w", err)
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, fmt.Errorf("profile function: %w", err)
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; the last value
	// type is the time.
	if nTypes == 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]profSample, 0, len(rawStacks))
	for i, locs := range rawStacks {
		if len(rawValues[i]) < nTypes {
			return nil, errors.New("profile: sample with too few values")
		}
		s := profSample{Nanos: int64(rawValues[i][nTypes-1])}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.Stack = append(s.Stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// layerPrefixes maps a function-name prefix to the *.cpu_s bucket it feeds.
// Order matters: the first match wins, so sub-packages precede their parents.
var layerPrefixes = []struct{ prefix, bucket string }{
	{"drrs/internal/simtime.", "simtime.sched_cpu_s"}, // RNG/Zipf receivers split off in bucketOf
	{"drrs/internal/netsim.", "netsim.cpu_s"},
	{"drrs/internal/engine.", "engine.cpu_s"},
	{"drrs/internal/dataflow.", "dataflow.cpu_s"},
	{"drrs/internal/state.", "state.cpu_s"},
	{"drrs/internal/workload.", "workload.cpu_s"},
	{"drrs/internal/twitch.", "workload.cpu_s"},
	{"drrs/internal/nexmark.", "workload.cpu_s"},
	{"drrs/internal/metrics.", "metrics.cpu_s"},
	{"drrs/internal/cluster.", "cluster.cpu_s"},
	{"drrs/internal/scaling", "scaling.cpu_s"}, // and scaling/<mechanism>
	{"drrs/internal/core.", "scaling.cpu_s"},
	{"drrs/internal/control.", "control.cpu_s"},
	{"drrs/internal/fitness.", "control.cpu_s"},
	{"drrs/internal/policysearch.", "control.cpu_s"},
	{"drrs/internal/faults.", "faults.cpu_s"},
	{"drrs/internal/chaos.", "faults.cpu_s"},
	{"drrs/internal/bench.", "bench.cpu_s"},
	{"main.", "bench.cpu_s"},
	{"math.", "simtime.rng_cpu_s"},
	{"math/rand.", "simtime.rng_cpu_s"},
	{"math/rand/v2.", "simtime.rng_cpu_s"},
}

// runtimeBuckets classifies Go runtime leaves into the rt pseudo-layer.
var runtimeBuckets = []struct {
	bucket   string
	contains []string
}{
	{"rt.maps_cpu_s", []string{"internal/runtime/maps.", "runtime.map", "runtime.(*hmap)", "runtime.(*bmap)",
		"aeshash", "memhash", "strhash", "runtime.evacuate", "runtime.hashGrow", "runtime.growWork"}},
	{"rt.gc_cpu_s", []string{"runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.greyobject", "runtime.mark",
		"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*sweep", "runtime.(*mspan).sweep",
		"runtime.(*mspan).mark", "runtime.wbBuf", "runtime.(*wbBuf)", "runtime.findObject", "runtime.spanOf",
		"runtime.(*mspan).heapBits", "runtime.(*mspan).typePointers", "runtime.(*mheap).reclaim",
		"runtime.(*mheap).nextSpanForSweep", "runtime.(*scavenge", "runtime.(*pageAlloc).scavenge",
		"runtime.typePointers", "runtime.(*activeSweep)", "runtime.(*limiterEvent)", "runtime.(*gcCPULimiterState)",
		"runtime.bulkBarrierPreWrite", "runtime.(*atomicHeadTailIndex)", "runtime.(*spanSet)", "runtime.(*lfstack)",
		"runtime.getempty", "runtime.putfull", "runtime.trygetfull", "runtime.handoff", "runtime.pollWork"}},
	{"rt.alloc_cpu_s", []string{"runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.growslice",
		"runtime.makeslice", "runtime.makemap", "runtime.makechan", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap).alloc", "runtime.(*mheap).grow", "runtime.(*mheap).init", "runtime.nextFreeFast",
		"runtime.memclrNoHeapPointers", "runtime.heapSetType", "runtime.deductAssistCredit", "runtime.profilealloc",
		"runtime.(*mspan).init", "runtime.(*mspan).nextFreeIndex", "runtime.(*mspan).writeHeapBits",
		"runtime.(*pageAlloc).alloc", "runtime.(*pageAlloc).find", "runtime.(*pageCache)", "runtime.publicationBarrier",
		"runtime.(*fixalloc)", "runtime.persistentalloc", "runtime.sysAlloc", "runtime.sysMap", "runtime.sysUsed",
		"runtime.rawstring", "runtime.concatstring", "runtime.slicebytetostring", "runtime.stringtoslicebyte",
		"runtime.convT", "runtime.mallocgc"}},
}

func isRNGReceiver(fn string) bool {
	return strings.Contains(fn, "simtime.(*RNG)") || strings.Contains(fn, "simtime.(*Zipf)") ||
		strings.Contains(fn, "simtime.NewRNG") || strings.Contains(fn, "simtime.NewZipf") ||
		strings.Contains(fn, "simtime.ZipfCDF")
}

// bucketOf names the bucket a single function belongs to, or "" for code
// that belongs to no layer (generic runtime and library helpers).
func bucketOf(fn string) string {
	for _, lp := range layerPrefixes {
		if strings.HasPrefix(fn, lp.prefix) {
			if lp.bucket == "simtime.sched_cpu_s" && isRNGReceiver(fn) {
				return "simtime.rng_cpu_s"
			}
			return lp.bucket
		}
	}
	for _, rb := range runtimeBuckets {
		for _, c := range rb.contains {
			if strings.Contains(fn, c) {
				return rb.bucket
			}
		}
	}
	return ""
}

// rollup attributes each sample's time to a bucket by its leaf function.
// A leaf no bucket claims (memmove, sort, futex) is charged to the nearest
// caller one does claim, so a layer pays for the copying and sorting it asks
// for and the collector for its own waiting; with no such caller the time is
// rt.other_cpu_s. The buckets sum to the profile total by construction.
func rollup(samples []profSample) (buckets map[string]float64, totalS float64) {
	buckets = map[string]float64{}
	for _, s := range samples {
		sec := float64(s.Nanos) / 1e9
		totalS += sec
		b := "rt.other_cpu_s"
		for _, fn := range s.Stack {
			if claimed := bucketOf(fn); claimed != "" {
				b = claimed
				break
			}
		}
		buckets[b] += sec
	}
	return buckets, totalS
}
