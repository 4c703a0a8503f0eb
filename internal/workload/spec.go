package workload

import (
	"fmt"
	"strconv"

	"drrs/internal/simtime"
)

// Arrival identifies a cohort's interarrival process.
type Arrival uint8

const (
	// ArrivalPoisson draws exponential interarrivals (memoryless clients).
	ArrivalPoisson Arrival = iota
	// ArrivalGamma draws gamma interarrivals with shape Cohort.ArrivalShape
	// (< 1 burstier than Poisson, > 1 more regular).
	ArrivalGamma
	// ArrivalWeibull draws Weibull interarrivals with shape
	// Cohort.ArrivalShape (< 1 heavy-tailed).
	ArrivalWeibull
	// ArrivalConstant ticks at the aggregate period, jittered ±Cohort.Jitter
	// (0 is a strict metronome).
	ArrivalConstant
)

func (a Arrival) String() string {
	switch a {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalGamma:
		return "gamma"
	case ArrivalWeibull:
		return "weibull"
	case ArrivalConstant:
		return "constant"
	}
	return fmt.Sprintf("arrival(%d)", uint8(a))
}

// Cohort is one homogeneous client population inside a Spec: Clients clients
// emitting RatePerClient records/s each (the cohort aggregates to Clients ×
// RatePerClient), with its own arrival process, key distribution, and load
// shape. Each cohort draws from its own named RNG streams, so adding or
// editing one cohort never perturbs another's stream.
type Cohort struct {
	// Name labels the cohort in summaries; optional.
	Name string
	// Clients is the client count; the cohort's aggregate rate is
	// Clients × RatePerClient records/s.
	Clients       int
	RatePerClient float64
	// Arrival picks the interarrival process for the cohort's merged stream.
	Arrival Arrival
	// ArrivalShape is the gamma/Weibull shape k (1 ≈ Poisson); ignored by
	// other processes.
	ArrivalShape float64
	// Jitter is ArrivalConstant's ± fraction; 0 is a strict metronome.
	Jitter float64
	// Key distribution: either KeySet (fixed keys cycled round-robin) or a
	// Zipf(Skew) hot set over [KeyBase, KeyBase+KeyCount). Skew 0 is uniform.
	// Key 0 is reserved by the engine, so KeyBase must be ≥ 1.
	KeyBase  uint64
	KeyCount int
	Skew     float64
	KeySet   []uint64
	// Load modulates the cohort's rate over time and drifts its hot set
	// (shapes are shared with the classic generator); PhaseOffset shifts the
	// cohort's position in the shape program, staggering diurnal peaks.
	Load        Shape
	PhaseOffset simtime.Duration
	// Size and Value fill the emitted records.
	Size  int
	Value float64
}

// DefaultCohort returns a single Poisson client over the classic key space:
// 1 client at 1 record/s, uniform over keys [1, 1000], 100-byte records.
func DefaultCohort() Cohort {
	return Cohort{
		Clients:       1,
		RatePerClient: 1,
		Arrival:       ArrivalPoisson,
		ArrivalShape:  1,
		KeyBase:       1,
		KeyCount:      1000,
		Size:          100,
		Value:         1,
	}
}

// Spec is a composable multi-client traffic description: a list of cohorts
// deterministically merged into one ordered arrival stream. Cohorts are
// partitioned round-robin across source instances (cohort i feeds instance
// i mod parallelism).
type Spec struct {
	Cohorts []Cohort
	// Duration bounds the stream; 0 generates forever.
	Duration simtime.Duration
	// Seed drives every cohort's named RNG streams.
	Seed int64
}

// validate panics on malformed cohorts; Specs are authored by scenario code,
// so errors are programming mistakes, caught eagerly like JobConfig's.
func (s Spec) validate() {
	if len(s.Cohorts) == 0 {
		panic("workload: Spec needs at least one Cohort")
	}
	for i, c := range s.Cohorts {
		where := func(msg string) string {
			name := c.Name
			if name == "" {
				name = "#" + strconv.Itoa(i)
			}
			return "workload: cohort " + name + ": " + msg
		}
		if c.Clients <= 0 {
			panic(where("Clients must be > 0 (use DefaultCohort)"))
		}
		if c.RatePerClient <= 0 {
			panic(where("RatePerClient must be > 0"))
		}
		if c.Size <= 0 {
			panic(where("Size must be > 0"))
		}
		if c.PhaseOffset < 0 {
			// A negative shape position would drift the hot set backwards out
			// of [KeyBase, KeyBase+KeyCount).
			panic(where("PhaseOffset must be ≥ 0"))
		}
		switch c.Arrival {
		case ArrivalGamma, ArrivalWeibull:
			if c.ArrivalShape <= 0 {
				panic(where("ArrivalShape must be > 0 for gamma/weibull arrivals"))
			}
		case ArrivalConstant:
			if c.Jitter < 0 || c.Jitter >= 1 {
				panic(where("Jitter must be in [0, 1)"))
			}
		}
		if len(c.KeySet) > 0 {
			for _, k := range c.KeySet {
				if k == 0 {
					panic(where("KeySet contains key 0 (reserved)"))
				}
			}
			continue
		}
		if c.KeyBase < 1 {
			panic(where("KeyBase must be ≥ 1 (key 0 is reserved)"))
		}
		if c.KeyCount <= 0 {
			panic(where("KeyCount must be > 0"))
		}
		if c.Skew < 0 {
			panic(where("Skew must be ≥ 0"))
		}
	}
}

// Live builds Traffic from a Spec: each source instance k-way-merges its
// cohorts' arrival streams into one ordered stream. Each cohort is generated
// a batch at a time (see cohortBatch), and Zipf tables are built here, once
// per (KeyCount, Skew), and shared read-only by every cohort and every
// Stream call — so thousands of cohorts over a handful of distributions stay
// cheap to set up, and one Live value may feed concurrent runs. Panics on
// malformed Specs.
func Live(spec Spec) Traffic {
	spec.validate()
	lt := &liveTraffic{spec: spec, zipfs: make([]*simtime.ZipfTable, len(spec.Cohorts))}
	type dist struct {
		n int
		s float64
	}
	shared := map[dist]*simtime.ZipfTable{}
	for i, c := range spec.Cohorts {
		if len(c.KeySet) > 0 || c.Skew <= 0 {
			continue
		}
		d := dist{n: c.KeyCount, s: c.Skew}
		if shared[d] == nil {
			shared[d] = simtime.NewZipfTable(d.n, d.s)
		}
		lt.zipfs[i] = shared[d]
	}
	return lt
}

type liveTraffic struct {
	spec Spec
	// zipfs[i] is cohort i's shared Zipf table (nil for uniform/KeySet).
	zipfs []*simtime.ZipfTable
}

func (lt *liveTraffic) Describe() string {
	clients := 0
	rate := 0.0
	var kinds [4]int
	for _, c := range lt.spec.Cohorts {
		clients += c.Clients
		rate += float64(float64(c.Clients) * c.RatePerClient)
		if int(c.Arrival) < len(kinds) {
			kinds[c.Arrival]++
		}
	}
	mix := ""
	for a, n := range kinds {
		if n == 0 {
			continue
		}
		if mix != "" {
			mix += " "
		}
		mix += fmt.Sprintf("%s:%d", Arrival(a), n)
	}
	return fmt.Sprintf("%d cohorts, %d clients, ~%.3g rec/s aggregate (%s)",
		len(lt.spec.Cohorts), clients, rate, mix)
}

func (lt *liveTraffic) Stream(instance, parallelism int, start simtime.Time) Stream {
	ms := &mergedStream{deadline: -1}
	if lt.spec.Duration > 0 {
		ms.deadline = start.Add(lt.spec.Duration)
	}
	for i := range lt.spec.Cohorts {
		if i%parallelism != instance {
			continue
		}
		cs := newCohortState(&lt.spec.Cohorts[i], lt.zipfs[i], uint32(i), lt.spec.Seed, start)
		ms.heap = append(ms.heap, cohortEntry{at: cs.nextAt(), idx: cs.idx, cs: cs})
	}
	// Entries were appended in ascending cohort order with their first batch
	// already drawn; establish the heap invariant over (at, cohort).
	for i := len(ms.heap)/2 - 1; i >= 0; i-- {
		ms.siftDown(i)
	}
	return ms
}

// cohortBatch is how many arrivals a cohort draws per refill. The merge pops
// a different cohort on nearly every arrival, and a cohort's generator state
// is ≈ 10 KB (two 4.9 KB math/rand sources dominate), so drawing one arrival
// per visit takes a cache miss on almost every draw; drawing a batch per visit
// pays those misses once per batch. Swept 8/16/32/64/128 on the 1200-cohort
// million-users cells: the gain is flat from 16 up, and 32 is the largest
// batch whose 512 B per cohort the shared Zipf tables still pay for, so bytes
// allocated fall instead of rising. A constant, not a setting: the emitted
// stream is the same at any value.
const cohortBatch = 32

// cohortState is one cohort's position in the merge: its RNG streams, its
// samplers, and the batch of arrivals it has drawn ahead. Arrival times come
// from one named stream and keys from another, and both gap and drawKey are
// functions of the arrival's own time only, so drawing cohortBatch gaps and
// then cohortBatch keys consumes each stream in exactly the order that
// drawing gap, key, gap, key… would, and every emitted Event is bit-equal.
// Arrivals drawn past the Spec deadline are never emitted; that is
// unobservable because both streams are private to the cohort.
type cohortState struct {
	idx     uint32
	head    int
	c       *Cohort
	start   simtime.Time
	arrival *simtime.RNG
	keys    *simtime.RNG
	zipf    *simtime.Zipf
	baseGap float64 // aggregate interarrival mean at factor 1, in duration units
	cursor  int     // KeySet round-robin position
	batch   [cohortBatch]struct {
		at  simtime.Time
		key uint64
	}
}

func newCohortState(c *Cohort, zipf *simtime.ZipfTable, idx uint32, seed int64, start simtime.Time) *cohortState {
	name := "workload/cohort/" + strconv.Itoa(int(idx))
	cs := &cohortState{
		c:       c,
		idx:     idx,
		start:   start,
		arrival: simtime.NewRNG(seed, name+"/arrival"),
		keys:    simtime.NewRNG(seed, name+"/keys"),
		baseGap: float64(simtime.Second) / (float64(c.Clients) * c.RatePerClient),
	}
	if zipf != nil {
		cs.zipf = simtime.NewZipfFrom(cs.keys, zipf)
	}
	cs.refill(start)
	return cs
}

// refill draws the cohortBatch arrivals that follow the one at prev (the
// stream's start, for the first batch): every gap, then every key.
func (cs *cohortState) refill(prev simtime.Time) {
	for i := range cs.batch {
		prev = prev.Add(cs.gap(prev))
		cs.batch[i].at = prev
	}
	for i := range cs.batch {
		cs.batch[i].key = cs.drawKey(cs.batch[i].at)
	}
	cs.head = 0
}

// pop returns the cohort's next arrival and steps past it, refilling when the
// batch drains.
func (cs *cohortState) pop() (at simtime.Time, key uint64) {
	a := cs.batch[cs.head]
	cs.head++
	if cs.head == cohortBatch {
		cs.refill(a.at)
	}
	return a.at, a.key
}

// nextAt is the time of the cohort's next arrival.
func (cs *cohortState) nextAt() simtime.Time { return cs.batch[cs.head].at }

// gap draws the next interarrival for the cohort's merged client stream,
// modulated by the load shape at the draw's position in the run.
func (cs *cohortState) gap(at simtime.Time) simtime.Duration {
	el := at.Sub(cs.start) + cs.c.PhaseOffset
	mean := simtime.Duration(cs.baseGap / cs.c.Load.FactorAt(el))
	var d simtime.Duration
	switch cs.c.Arrival {
	case ArrivalGamma:
		d = cs.arrival.Gamma(mean, cs.c.ArrivalShape)
	case ArrivalWeibull:
		d = cs.arrival.Weibull(mean, cs.c.ArrivalShape)
	case ArrivalConstant:
		d = cs.arrival.Jitter(mean, cs.c.Jitter)
	default:
		d = cs.arrival.Exp(mean)
	}
	if d < 1 {
		d = 1 // keep time strictly advancing per cohort
	}
	return d
}

// drawKey picks the arrival's key: fixed-set round-robin, or a rank from the
// cohort's Zipf/uniform distribution mapped through the load shape's hot-key
// drift into [KeyBase, KeyBase+KeyCount).
func (cs *cohortState) drawKey(at simtime.Time) uint64 {
	c := cs.c
	if len(c.KeySet) > 0 {
		k := c.KeySet[cs.cursor]
		cs.cursor++
		if cs.cursor == len(c.KeySet) {
			cs.cursor = 0
		}
		return k
	}
	var rank int
	if cs.zipf != nil {
		rank = cs.zipf.Next()
	} else {
		rank = int(cs.keys.Int64N(int64(c.KeyCount)))
	}
	el := at.Sub(cs.start) + c.PhaseOffset
	return c.KeyBase + uint64(c.Load.MapRank(rank, el, c.KeyCount))
}

// mergedStream k-way-merges its cohorts by (next arrival, cohort index) — the
// index breaks ties deterministically — and clamps the whole stream at the
// Spec deadline with a single Stop event.
type mergedStream struct {
	heap     []cohortEntry
	deadline simtime.Time
	done     bool
}

// cohortEntry is one cohort in the merge heap. It copies the cohort's sort
// key, so sifting compares entries in place instead of dereferencing a ≈ 10
// KB cohortState per comparison; at is refreshed after every pop.
type cohortEntry struct {
	at  simtime.Time
	idx uint32
	cs  *cohortState
}

func (ms *mergedStream) Next(ev *Event) bool {
	if ms.done {
		return false
	}
	if len(ms.heap) == 0 || (ms.deadline >= 0 && ms.heap[0].at >= ms.deadline) {
		// No cohorts on this instance, or every remaining arrival lands past
		// the deadline: the stream ends. Unbounded cohortless streams end
		// silently; bounded ones stop at the deadline so the source still
		// emits its final watermark.
		ms.done = true
		if ms.deadline < 0 {
			return false
		}
		*ev = Event{At: ms.deadline, Stop: true}
		return true
	}
	top := &ms.heap[0]
	cs := top.cs
	at, key := cs.pop()
	top.at = cs.nextAt()
	*ev = Event{
		At:     at,
		Key:    key,
		Size:   cs.c.Size,
		Value:  cs.c.Value,
		Cohort: cs.idx,
	}
	ms.siftDown(0)
	return true
}

// less orders the heap by (at, cohort index).
func (a *cohortEntry) less(b *cohortEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

func (ms *mergedStream) siftDown(i int) {
	h := ms.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].less(&h[min]) {
			min = l
		}
		if r < n && h[r].less(&h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
