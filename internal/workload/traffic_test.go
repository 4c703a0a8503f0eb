package workload

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"sync"
	"testing"

	"drrs/internal/simtime"
)

// testSpec is a compact spec covering the full cohort surface: all four
// arrival processes, a skewed hot set, a fixed key set, a load shape, and
// non-default record size/value (exercising every trace flag path).
func testSpec(seed int64) Spec {
	mk := func(name string, clients int, rate float64, a Arrival, shape float64) Cohort {
		c := DefaultCohort()
		c.Name = name
		c.Clients = clients
		c.RatePerClient = rate / float64(clients)
		c.Arrival = a
		c.ArrivalShape = shape
		return c
	}
	skewed := mk("skewed", 40, 400, ArrivalPoisson, 1)
	skewed.Skew = 1.1
	skewed.KeyCount = 100
	bursty := mk("bursty", 25, 300, ArrivalGamma, 0.5)
	bursty.KeyBase = 101
	tail := mk("tail", 15, 250, ArrivalWeibull, 0.8)
	tail.KeyBase = 1101
	poll := mk("poll", 8, 200, ArrivalConstant, 0)
	poll.Jitter = 0.3
	poll.KeyBase = 2101
	fixed := mk("fixed", 5, 150, ArrivalPoisson, 1)
	fixed.KeySet = []uint64{5, 9}
	big := mk("big", 10, 200, ArrivalPoisson, 1)
	big.Size = 200
	big.Value = 2.5
	big.KeyBase = 3101
	big.Load = Diurnal(simtime.Sec(1), 0.6, 1.5)
	return Spec{
		Cohorts:  []Cohort{skewed, bursty, tail, poll, fixed, big},
		Duration: simtime.Sec(2),
		Seed:     seed,
	}
}

func drain(s Stream) []Event {
	var out []Event
	var ev Event
	for s.Next(&ev) {
		out = append(out, ev)
	}
	return out
}

// streamsOf decodes each of the trace's streams, At relative to its start.
func streamsOf(tr *Trace) [][]Event {
	out := make([][]Event, len(tr.streams))
	for i := range tr.streams {
		c := traceCursor{blocks: tr.streams[i].blocks}
		var ev Event
		for c.next(&ev) {
			out[i] = append(out[i], ev)
		}
	}
	return out
}

// traceOf encodes one stream per element of streams, as a recording would.
func traceOf(streams ...[]Event) *Trace {
	tr := &Trace{SourceParallelism: len(streams), streams: make([]traceStream, len(streams))}
	for i, st := range streams {
		for k := range st {
			tr.streams[i].add(&st[k])
		}
	}
	return tr
}

func dropStops(events []Event) []Event {
	out := events[:0:0]
	for _, ev := range events {
		if !ev.Stop {
			out = append(out, ev)
		}
	}
	return out
}

// sortArrivals orders events the way the k-way merge promises to: by
// (At, cohort). Within one cohort times strictly increase (the ≥1ns gap
// clamp), so this is a total order.
func sortArrivals(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Cohort < events[j].Cohort
	})
}

// TestMergedStreamIsSortedMergeOfCohorts is the tentpole property test: for
// any parallelism, each instance's stream is time-ordered, and the union of
// all instances' arrivals is exactly the sorted merge of the independent
// per-cohort streams (obtained by running one cohort per instance). Checked
// across two seeds.
func TestMergedStreamIsSortedMergeOfCohorts(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		spec := testSpec(seed)
		n := len(spec.Cohorts)
		// Reference: parallelism n isolates cohort i on instance i, so each
		// stream IS that cohort's arrival sequence.
		var reference []Event
		perCohort := make([]int, n)
		for i := 0; i < n; i++ {
			evs := dropStops(drain(Live(spec).Stream(i, n, 0)))
			perCohort[i] = len(evs)
			for _, ev := range evs {
				if int(ev.Cohort) != i {
					t.Fatalf("seed %d: instance %d saw cohort %d", seed, i, ev.Cohort)
				}
			}
			reference = append(reference, evs...)
		}
		sortArrivals(reference)
		if len(reference) == 0 {
			t.Fatalf("seed %d: reference stream empty", seed)
		}
		for i, c := range perCohort {
			if c == 0 {
				t.Fatalf("seed %d: cohort %d produced no arrivals", seed, i)
			}
		}
		for _, par := range []int{1, 2} {
			var union []Event
			for inst := 0; inst < par; inst++ {
				evs := drain(Live(spec).Stream(inst, par, 0))
				for k := 1; k < len(evs); k++ {
					if evs[k].At < evs[k-1].At {
						t.Fatalf("seed %d par %d inst %d: stream not time-ordered at %d", seed, par, inst, k)
					}
				}
				last := evs[len(evs)-1]
				if !last.Stop || last.At != simtime.Time(0).Add(spec.Duration) {
					t.Fatalf("seed %d par %d inst %d: stream must end with a Stop at the deadline, got %+v", seed, par, inst, last)
				}
				union = append(union, dropStops(evs)...)
			}
			sortArrivals(union)
			if !reflect.DeepEqual(union, reference) {
				t.Fatalf("seed %d par %d: merged union diverges from per-cohort reference (%d vs %d events)",
					seed, par, len(union), len(reference))
			}
		}
	}
}

// TestLiveDeterminism: same spec and seed replay identically; a different
// seed moves the stream.
func TestLiveDeterminism(t *testing.T) {
	a := Synthesize(Live(testSpec(3)), 2)
	b := Synthesize(Live(testSpec(3)), 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed synthesized different traces")
	}
	c := Synthesize(Live(testSpec(4)), 2)
	if reflect.DeepEqual(streamsOf(a), streamsOf(c)) {
		t.Fatal("different seeds synthesized identical traces")
	}
}

// seamSpec is testSpec plus a drifting hot set that shares the "skewed"
// cohort's (KeyCount, Skew) table, cut to duration d: every kind of cohort
// the generator has, at a length the caller picks relative to cohortBatch.
func seamSpec(seed int64, d simtime.Duration) Spec {
	spec := testSpec(seed)
	drift := DefaultCohort()
	drift.Name = "drift"
	drift.Clients = 20
	drift.RatePerClient = 15
	drift.Skew = 1.1
	drift.KeyCount = 100
	drift.KeyBase = 4101
	drift.Load = HotKeyDrift(simtime.Ms(10), 0.1)
	drift.PhaseOffset = simtime.Ms(7)
	spec.Cohorts = append(spec.Cohorts, drift)
	spec.Duration = d
	return spec
}

// streamSum is the footer Trace.Write appends: an FNV-1a fold of every
// encoded byte, so two generators agree on it only if every event they emit
// is bit-equal.
func streamSum(t *testing.T, tr *Trace) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(buf.Bytes()[buf.Len()-8:])
}

// TestLiveStreamChecksums pins Live's output byte for byte. The sums were
// captured from the one-draw-per-arrival generator that cohort batching
// replaced (and re-recorded once when the streams moved to PCG), so they hold
// only while every cohort's two RNG streams are drawn in the original order —
// across a deadline inside the first batch, and across many refills.
func TestLiveStreamChecksums(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		p    int
		want uint64
		// every cohort emits within [lo, hi] arrivals
		lo, hi int
	}{
		{"testSpec/p1", testSpec(3), 1, 0x53c6b1925f4ad106, 1, 1 << 30},
		{"testSpec/p2", testSpec(3), 2, 0x4c8d355bc89cb3e3, 1, 1 << 30},
		{"ends inside first batch", seamSpec(5, simtime.Ms(40)), 2, 0x031edb55e95e13e9, 1, cohortBatch - 1},
		{"three refills and more", seamSpec(5, simtime.Sec(3)), 1, 0x312c71748422d5af, 3*cohortBatch + 1, 1 << 30},
	} {
		tr := Synthesize(Live(tc.spec), tc.p)
		per := make([]int, len(tc.spec.Cohorts))
		for _, st := range streamsOf(tr) {
			for _, ev := range dropStops(st) {
				per[ev.Cohort]++
			}
		}
		for i, n := range per {
			if n < tc.lo || n > tc.hi {
				t.Errorf("%s: cohort %s emitted %d arrivals, want [%d, %d]", tc.name, tc.spec.Cohorts[i].Name, n, tc.lo, tc.hi)
			}
		}
		if got := streamSum(t, tr); got != tc.want {
			t.Errorf("%s: stream checksum 0x%016x, pinned 0x%016x", tc.name, got, tc.want)
		}
	}
}

// TestLiveUnboundedKeepsYielding: with no Duration there is no deadline to
// end on, so the merge must keep refilling: time-ordered arrivals from every
// cohort, well past the point where each has drained several batches.
func TestLiveUnboundedKeepsYielding(t *testing.T) {
	spec := seamSpec(5, 0)
	st := Live(spec).Stream(0, 1, simtime.Time(simtime.Sec(1)))
	seen := make([]int, len(spec.Cohorts))
	var ev, prev Event
	for i := 0; i < 8*cohortBatch*len(spec.Cohorts); i++ {
		if !st.Next(&ev) || ev.Stop {
			t.Fatalf("unbounded stream ended at pull %d (%+v)", i, ev)
		}
		if i > 0 && (ev.At < prev.At || (ev.At == prev.At && ev.Cohort <= prev.Cohort)) {
			t.Fatalf("pull %d out of (At, cohort) order: %+v after %+v", i, ev, prev)
		}
		seen[ev.Cohort]++
		prev = ev
	}
	for i, n := range seen {
		if n <= 3*cohortBatch {
			t.Errorf("cohort %s yielded %d arrivals, want > %d", spec.Cohorts[i].Name, n, 3*cohortBatch)
		}
	}
}

// TestLiveStreamsShareNothingMutable: one Live value hands out equal,
// independent streams — the benchmark reuses a constructed Scenario across
// passes and RunParallel gives one Traffic to several goroutines. Draining
// concurrently lets -race prove the shared Zipf tables are only read.
func TestLiveStreamsShareNothingMutable(t *testing.T) {
	live := Live(seamSpec(5, simtime.Sec(1)))
	var got [3][]Event
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = drain(live.Stream(0, 1, 0))
		}(i)
	}
	wg.Wait()
	if len(dropStops(got[0])) == 0 {
		t.Fatal("stream is empty")
	}
	for i := 1; i < len(got); i++ {
		if !reflect.DeepEqual(got[0], got[i]) {
			t.Fatalf("stream %d of the same Live value diverged from stream 0", i)
		}
	}
}

// TestTraceRoundTrip: encode → decode is identity, in memory and on disk,
// including non-default sizes/values and stop markers.
func TestTraceRoundTrip(t *testing.T) {
	tr := Synthesize(Live(testSpec(3)), 2)
	if tr.Events() == 0 {
		t.Fatal("synthesized trace is empty")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("trace did not round-trip through the codec")
	}
	path := t.TempDir() + "/round.trace"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back2) {
		t.Fatal("trace did not round-trip through a file")
	}
}

// TestTraceRejectsCorruption: version bumps, bit flips, and truncation all
// fail loudly instead of replaying garbage.
func TestTraceRejectsCorruption(t *testing.T) {
	tr := Synthesize(Live(testSpec(3)), 1)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	future := append([]byte(nil), enc...)
	future[7]++ // version byte
	if _, err := ReadTrace(bytes.NewReader(future)); err == nil {
		t.Fatal("accepted a future trace version")
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadTrace(bytes.NewReader(flipped)); err == nil {
		t.Fatal("accepted a corrupted trace")
	}
	if _, err := ReadTrace(bytes.NewReader(enc[:len(enc)-4])); err == nil {
		t.Fatal("accepted a truncated trace")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("accepted a non-trace file")
	}
	// A header is read before any checksum can vouch for it: one stream of
	// 2^62 events must be an error, not a makeslice panic, and a count the
	// file does not back must fail at the missing body.
	header := func(events uint64) []byte {
		b := append([]byte(traceMagic), 1) // uvarint(1): one stream
		return binary.AppendUvarint(b, events)
	}
	if _, err := ReadTrace(bytes.NewReader(header(1 << 62))); err == nil {
		t.Fatal("accepted a stream of 2^62 events")
	}
	if _, err := ReadTrace(bytes.NewReader(header(3 << 20))); err == nil {
		t.Fatal("accepted a stream whose declared events are missing")
	}
}

// TestReplayReproducesTraffic: replaying a synthesized trace at the recorded
// parallelism reproduces it exactly; replaying at a different parallelism
// preserves the arrival multiset, time order, and cohort routing.
func TestReplayReproducesTraffic(t *testing.T) {
	tr := Synthesize(Live(testSpec(3)), 2)
	same := Synthesize(Replay(tr), 2)
	if !reflect.DeepEqual(streamsOf(tr), streamsOf(same)) {
		t.Fatal("replay at the recorded parallelism is not exact")
	}

	one := Synthesize(Replay(tr), 1)
	if got, want := one.Events(), tr.Events(); got != want {
		t.Fatalf("repartition dropped events: %d vs %d", got, want)
	}
	evs := streamsOf(one)[0]
	for k := 1; k < len(evs); k++ {
		if evs[k].At < evs[k-1].At {
			t.Fatalf("repartitioned stream not time-ordered at %d", k)
		}
	}
	if last := evs[len(evs)-1]; !last.Stop {
		t.Fatal("repartitioned bounded stream must end with a Stop")
	}
	// The same arrivals, regardless of how they were partitioned.
	recorded := streamsOf(tr)
	a := dropStops(append([]Event(nil), recorded[0]...))
	a = append(a, dropStops(recorded[1])...)
	sortArrivals(a)
	b := dropStops(append([]Event(nil), evs...))
	sortArrivals(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repartitioning changed the arrival multiset")
	}
	// Cohort routing matches Live's partitioning on the new parallelism.
	three := Synthesize(Replay(tr), 3)
	for inst, st := range streamsOf(three) {
		for _, ev := range dropStops(st) {
			if int(ev.Cohort)%3 != inst {
				t.Fatalf("cohort %d landed on instance %d", ev.Cohort, inst)
			}
		}
	}
}

// TestClassicStreamOutsideRun: a Classic stream drawn outside a run, with a
// Zipf table of its own (as the benchmark's traffic kernel draws it), yields
// exactly what every source instance of a run draws from the run's shared
// table.
func TestClassicStreamOutsideRun(t *testing.T) {
	spec := ClassicSpec{Keys: 500, RatePerSec: 2000, Skew: 0.9, Duration: simtime.Sec(1), Seed: 4}
	run := streamsOf(Synthesize(Classic(spec), 2))
	alone := drain(Classic(spec).Stream(0, 2, 0))
	if len(alone) < 1000 || !alone[len(alone)-1].Stop {
		t.Fatalf("the stream yielded %d events, want over 1000 ending in a Stop", len(alone))
	}
	for i, got := range run {
		if !reflect.DeepEqual(got, alone) {
			t.Fatalf("instance %d of a run draws another stream than one drawn outside a run", i)
		}
	}
}

// TestSpecValidation: malformed cohorts panic with the cohort named.
func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*Cohort){
		"zero clients": func(c *Cohort) { c.Clients = 0 },
		"zero rate":    func(c *Cohort) { c.RatePerClient = 0 },
		"zero size":    func(c *Cohort) { c.Size = 0 },
		"gamma shape":  func(c *Cohort) { c.Arrival = ArrivalGamma; c.ArrivalShape = 0 },
		"jitter range": func(c *Cohort) { c.Arrival = ArrivalConstant; c.Jitter = 1 },
		"key zero":     func(c *Cohort) { c.KeySet = []uint64{0} },
		"keybase zero": func(c *Cohort) { c.KeyBase = 0 },
		"negative skew": func(c *Cohort) {
			c.Skew = -1
		},
		"negative phase": func(c *Cohort) { c.PhaseOffset = -simtime.Sec(10) },
	}
	for name, breakIt := range cases {
		c := DefaultCohort()
		c.Name = "victim"
		breakIt(&c)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: validate accepted the cohort", name)
				}
			}()
			Live(Spec{Cohorts: []Cohort{c}})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty Spec accepted")
			}
		}()
		Live(Spec{})
	}()
}

// TestJobConfigValidation: BuildJob and Classic reject malformed jobs, empty
// key spaces, silent rates and nil traffic eagerly; explicit zeros for cost
// and state are honored, not re-defaulted.
func TestJobConfigValidation(t *testing.T) {
	for name, breakIt := range map[string]func(*testJob){
		"source parallelism": func(j *testJob) { j.SourceParallelism = 0 },
		"agg parallelism":    func(j *testJob) { j.AggParallelism = 0 },
		"key groups":         func(j *testJob) { j.MaxKeyGroups = 0 },
		"negative state":     func(j *testJob) { j.StateBytesPerKey = -1 },
		"negative cost":      func(j *testJob) { j.CostPerRecord = -1 },
		"no keys":            func(j *testJob) { j.Keys = 0 },
		"negative keys":      func(j *testJob) { j.Keys = -1 },
		"no rate":            func(j *testJob) { j.RatePerSec = 0 },
		"negative rate":      func(j *testJob) { j.RatePerSec = -1 },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the job was accepted", name)
				}
			}()
			newTestJob(breakIt).build()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BuildJob accepted nil traffic")
			}
		}()
		BuildJob(DefaultJob(), nil)
	}()
	// Explicit zeros are legal and preserved — the ambiguity JobConfig fixes.
	g, _ := newTestJob(func(j *testJob) {
		j.CostPerRecord = 0
		j.StateBytesPerKey = 0
	}).build()
	if err := g.Validate(); err != nil {
		t.Fatalf("zero-cost job graph invalid: %v", err)
	}
}

// TestDescribeSummaries: traffic one-liners (used by drrs-bench -list) name
// the essentials.
func TestDescribeSummaries(t *testing.T) {
	live := Live(testSpec(3))
	if d := live.Describe(); d == "" {
		t.Fatal("live Describe empty")
	}
	tr := Synthesize(live, 2)
	if d := Replay(tr).Describe(); d == "" {
		t.Fatal("replay Describe empty")
	}
	if d := NewRecorder(live).Describe(); d == "" {
		t.Fatal("recorder Describe empty")
	}
	if d := Classic(ClassicSpec{Keys: 1000, RatePerSec: 1000}).Describe(); d == "" {
		t.Fatal("classic Describe empty")
	}
}
