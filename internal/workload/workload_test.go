package workload

import (
	"math"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// testJob is the custom job the tests build: DefaultJob fed Classic traffic
// over 1000 keys at 1000 records/s, then adjusted by edit.
type testJob struct {
	JobConfig
	ClassicSpec
}

func newTestJob(edit func(*testJob)) testJob {
	j := testJob{DefaultJob(), ClassicSpec{Keys: 1000, RatePerSec: 1000}}
	edit(&j)
	return j
}

func (j testJob) build() (*dataflow.Graph, *engine.CollectSink) {
	return BuildJob(j.JobConfig, Classic(j.ClassicSpec))
}

// keySink is the job's CollectSink plus per-key sums of what reached it, for
// tests that check per-key output.
type keySink struct {
	*engine.CollectSink
	byKey map[uint64]float64
}

func (s *keySink) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	s.byKey[r.Key] += r.Value
	s.CollectSink.OnRecord(ctx, r)
}

func run(t *testing.T, cfg testJob) (*engine.Runtime, *keySink) {
	t.Helper()
	g, cs := cfg.build()
	sink := &keySink{cs, map[uint64]float64{}}
	g.Operator("sink").NewLogic = func() dataflow.Logic { return sink }
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: cfg.Seed})
	rt.Start()
	s.RunUntil(simtime.Time(cfg.Duration))
	rt.StopMarkers()
	s.Run()
	return rt, sink
}

func TestDefaultsAndStructure(t *testing.T) {
	g, _ := newTestJob(func(j *testJob) { j.Duration = simtime.Sec(1) }).build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order := g.Topological()
	if len(order) != 3 {
		t.Fatalf("custom workload should be a 3-operator job, got %d", len(order))
	}
	if g.Operator("agg").MaxKeyGroups != 128 {
		t.Fatalf("default MaxKeyGroups %d", g.Operator("agg").MaxKeyGroups)
	}
}

func TestRateIsHonored(t *testing.T) {
	cfg := newTestJob(func(j *testJob) {
		j.RatePerSec, j.Duration, j.Seed, j.EmitUpdates = 3000, simtime.Sec(2), 1, true
	})
	rt, _ := run(t, cfg)
	total := rt.Throughput.Total()
	// One source instance at 3000/s for 2s ≈ 6000 records (±jitter).
	if total < 5500 || total > 6500 {
		t.Fatalf("generated %d records, want ≈6000", total)
	}
}

func TestStateSizeKnob(t *testing.T) {
	cfg := newTestJob(func(j *testJob) {
		j.Keys, j.StateBytesPerKey, j.RatePerSec, j.Duration, j.Seed = 500, 2048, 5000, simtime.Sec(2), 2
	})
	rt, _ := run(t, cfg)
	got := rt.TotalStateBytes("agg")
	// Most of the 500 keys should have been touched: state ≈ keys × bytes.
	if got < 500*2048*8/10 {
		t.Fatalf("state %d bytes, want ≈%d", got, 500*2048)
	}
}

func TestSkewConcentratesKeys(t *testing.T) {
	uniform := keySpread(t, 0.0)
	skewed := keySpread(t, 1.5)
	if skewed <= uniform {
		t.Fatalf("skew 1.5 top-key share %.3f should exceed uniform %.3f", skewed, uniform)
	}
}

// keySpread returns the fraction of records on the most loaded aggregator
// instance.
func keySpread(t *testing.T, skew float64) float64 {
	cfg := newTestJob(func(j *testJob) {
		j.Keys, j.Skew, j.RatePerSec = 1000, skew, 5000
		j.Duration, j.Seed, j.AggParallelism, j.MaxKeyGroups = simtime.Sec(2), 3, 4, 32
	})
	rt, _ := run(t, cfg)
	var max, total uint64
	for _, in := range rt.Instances("agg") {
		total += in.Processed
		if in.Processed > max {
			max = in.Processed
		}
	}
	if total == 0 {
		t.Fatal("nothing processed")
	}
	return float64(max) / float64(total)
}

func TestEmitUpdatesReachSink(t *testing.T) {
	cfg := newTestJob(func(j *testJob) {
		j.RatePerSec, j.Duration, j.Seed, j.EmitUpdates = 2000, simtime.Sec(1), 4, true
	})
	rt, sink := run(t, cfg)
	if int64(sink.Records) != rt.Throughput.Total() {
		t.Fatalf("sink %d vs generated %d", sink.Records, rt.Throughput.Total())
	}
	if d := sink.Duplicates(); d != 0 {
		t.Fatalf("%d duplicates", d)
	}
}

func TestKeysLandInCorrectGroups(t *testing.T) {
	cfg := newTestJob(func(j *testJob) {
		j.Keys, j.RatePerSec, j.Duration, j.Seed, j.MaxKeyGroups = 300, 4000, simtime.Sec(1), 5, 64
	})
	rt, _ := run(t, cfg)
	for _, in := range rt.Instances("agg") {
		for kg, g := range in.Store().Groups() {
			for _, k := range g.Keys() {
				if state.KeyGroupOf(k, 64) != kg {
					t.Fatalf("key %d in wrong group %d", k, kg)
				}
			}
		}
	}
}

func TestShapeFactorAt(t *testing.T) {
	// Flat (zero) shape.
	if f := (Shape{}).FactorAt(simtime.Sec(5)); f != 1 {
		t.Fatalf("zero shape factor %v", f)
	}
	// Flash crowd: 1× for 10 s, 2× for 5 s, 1× after.
	fc := FlashCrowd(simtime.Sec(10), simtime.Sec(5), 2)
	for _, c := range []struct {
		at   simtime.Duration
		want float64
	}{{simtime.Sec(1), 1}, {simtime.Sec(12), 2}, {simtime.Sec(16), 1}, {simtime.Sec(100), 1}} {
		if f := fc.FactorAt(c.at); f != c.want {
			t.Fatalf("flash crowd factor at %v = %v, want %v", c.at, f, c.want)
		}
	}
	// Diurnal: ramps low→high→low and loops.
	d := Diurnal(simtime.Sec(20), 0.5, 1.5)
	if f := d.FactorAt(0); f != 0.5 {
		t.Fatalf("diurnal start %v", f)
	}
	if f := d.FactorAt(simtime.Sec(10)); f != 1.5 {
		t.Fatalf("diurnal peak %v", f)
	}
	if f := d.FactorAt(simtime.Sec(5)); f != 1.0 {
		t.Fatalf("diurnal mid-ramp %v", f)
	}
	if a, b := d.FactorAt(simtime.Sec(3)), d.FactorAt(simtime.Sec(43)); a != b {
		t.Fatalf("diurnal should loop: %v vs %v", a, b)
	}
	// A nonsense zero/negative factor clamps instead of stalling the
	// generator.
	bad := Shape{Phases: []Phase{{Duration: simtime.Sec(1), StartFactor: -1, EndFactor: -1}}}
	if f := bad.FactorAt(simtime.Ms(500)); f <= 0 {
		t.Fatalf("factor %v must stay positive", f)
	}
}

func TestShapeMapRankDrift(t *testing.T) {
	s := HotKeyDrift(simtime.Sec(2), 0.1)
	const keys = 100
	if got := s.MapRank(3, simtime.Sec(1), keys); got != 3 {
		t.Fatalf("no shift before the first interval: %d", got)
	}
	if got := s.MapRank(3, simtime.Sec(3), keys); got != 13 {
		t.Fatalf("one shift of 10%%: %d, want 13", got)
	}
	if got := s.MapRank(95, simtime.Sec(3), keys); got != 5 {
		t.Fatalf("shift must wrap the key space: %d, want 5", got)
	}
	// Zero shape never remaps.
	if got := (Shape{}).MapRank(42, simtime.Sec(99), keys); got != 42 {
		t.Fatalf("zero shape remapped to %d", got)
	}
}

func TestFlashCrowdRaisesRate(t *testing.T) {
	base := newTestJob(func(j *testJob) {
		j.RatePerSec, j.Duration, j.Seed, j.EmitUpdates = 2000, simtime.Sec(6), 9, true
	})
	shaped := base
	shaped.Shape = FlashCrowd(simtime.Sec(2), simtime.Sec(2), 1.5)
	rt, _ := run(t, base)
	rts, _ := run(t, shaped)
	flat := rt.Throughput.Series()
	spiked := rts.Throughput.Series()
	// Bucket 3 (t ∈ [3s,4s)) sits inside the spike: ~3000/s vs ~2000/s.
	flatMid := flat.Slice(simtime.Time(simtime.Sec(3)), simtime.Time(simtime.Sec(4)))
	spikeMid := spiked.Slice(simtime.Time(simtime.Sec(3)), simtime.Time(simtime.Sec(4)))
	if len(flatMid) == 0 || len(spikeMid) == 0 {
		t.Fatal("missing throughput buckets")
	}
	if spikeMid[0].V < flatMid[0].V*1.3 {
		t.Fatalf("spike bucket %v not ≈1.5× flat bucket %v", spikeMid[0].V, flatMid[0].V)
	}
	// Outside the spike the rates match.
	flatPre := flat.Slice(simtime.Time(simtime.Sec(1)), simtime.Time(simtime.Sec(2)))
	spikePre := spiked.Slice(simtime.Time(simtime.Sec(1)), simtime.Time(simtime.Sec(2)))
	if d := math.Abs(spikePre[0].V - flatPre[0].V); d > flatPre[0].V*0.1 {
		t.Fatalf("pre-spike rates diverge: %v vs %v", spikePre[0].V, flatPre[0].V)
	}
}

func TestHotKeyDriftSpreadsLoad(t *testing.T) {
	// With a static skewed distribution one key owns the whole run's hot
	// mass; when the hot set drifts, that mass spreads across the rotation's
	// successive hot keys and the top key's share collapses.
	share := func(shape Shape) float64 {
		cfg := newTestJob(func(j *testJob) {
			j.Keys, j.Skew, j.RatePerSec, j.Duration = 500, 1.2, 4000, simtime.Sec(6)
			j.Seed, j.Shape, j.EmitUpdates = 10, shape, true
		})
		_, sink := run(t, cfg)
		var max, total float64
		for _, v := range sink.byKey {
			total += v
			if v > max {
				max = v
			}
		}
		if total == 0 {
			t.Fatal("nothing reached the sink")
		}
		return max / total
	}
	static := share(Shape{})
	drift := share(HotKeyDrift(simtime.Sec(1), 0.2))
	if drift >= static*0.7 {
		t.Fatalf("drift top-key share %.3f should be well below static %.3f", drift, static)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := newTestJob(func(j *testJob) {
		j.RatePerSec, j.Duration, j.Seed, j.EmitUpdates = 2500, simtime.Sec(1), 6, true
	})
	_, a := run(t, cfg)
	_, b := run(t, cfg)
	if a.Records != b.Records {
		t.Fatalf("non-deterministic: %d vs %d", a.Records, b.Records)
	}
	for k, v := range a.byKey {
		if bv := b.byKey[k]; math.Abs(bv-v) > 1e-9 {
			t.Fatalf("key %d diverged: %v vs %v", k, v, bv)
		}
	}
}
