package workload

import (
	"bytes"
	"reflect"
	"sort"
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
	if reflect.DeepEqual(a.Streams, c.Streams) {
		t.Fatal("different seeds synthesized identical traces")
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
}

// TestReplayReproducesTraffic: replaying a synthesized trace at the recorded
// parallelism reproduces it exactly; replaying at a different parallelism
// preserves the arrival multiset, time order, and cohort routing.
func TestReplayReproducesTraffic(t *testing.T) {
	tr := Synthesize(Live(testSpec(3)), 2)
	same := Synthesize(Replay(tr), 2)
	if !reflect.DeepEqual(tr.Streams, same.Streams) {
		t.Fatal("replay at the recorded parallelism is not exact")
	}

	one := Synthesize(Replay(tr), 1)
	if got, want := one.Events(), tr.Events(); got != want {
		t.Fatalf("repartition dropped events: %d vs %d", got, want)
	}
	evs := one.Streams[0]
	for k := 1; k < len(evs); k++ {
		if evs[k].At < evs[k-1].At {
			t.Fatalf("repartitioned stream not time-ordered at %d", k)
		}
	}
	if last := evs[len(evs)-1]; !last.Stop {
		t.Fatal("repartitioned bounded stream must end with a Stop")
	}
	// The same arrivals, regardless of how they were partitioned.
	a := dropStops(append([]Event(nil), tr.Streams[0]...))
	a = append(a, dropStops(tr.Streams[1])...)
	sortArrivals(a)
	b := dropStops(append([]Event(nil), evs...))
	sortArrivals(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repartitioning changed the arrival multiset")
	}
	// Cohort routing matches Live's partitioning on the new parallelism.
	three := Synthesize(Replay(tr), 3)
	for inst, st := range three.Streams {
		for _, ev := range dropStops(st) {
			if int(ev.Cohort)%3 != inst {
				t.Fatalf("cohort %d landed on instance %d", ev.Cohort, inst)
			}
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
		"watermark":          func(j *testJob) { j.WatermarkEvery = 0 },
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
