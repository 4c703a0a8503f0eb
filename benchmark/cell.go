package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"drrs/internal/bench"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// prepared is a cell with its Scenario constructed: the product of set-up,
// reused unchanged by every pass.
type prepared struct {
	cell cell
	seed int64
	sc   bench.Scenario
	// err records a construction failure (an unknown scenario name panics
	// inside the registry); the cell then fails on every pass.
	err error
}

// twinKey identifies the scenario and seed a cell shares with its no-scale
// twin.
func (p *prepared) twinKey() string { return fmt.Sprintf("%s/%d", p.cell.Scenario, p.seed) }

// prepare constructs the cell's scenario for baseSeed. Panics from the
// registry become the prepared cell's error.
func prepare(tr *tracer, c cell, baseSeed int64) (p prepared) {
	p = prepared{cell: c, seed: baseSeed + c.SeedOff}
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("prepare %s: %v", c.ID(), r)
		}
	}()
	sp := tr.begin("ScenarioByName", "bench", c.ID())
	p.sc = bench.ScenarioByName(c.Scenario, p.seed)
	sp.end()
	if c.Candidate != nil {
		sp := tr.begin("Candidate.Apply", "control", c.ID())
		p.sc = c.Candidate.Apply(p.sc)
		sp.end()
	}
	return p
}

// prepareAll constructs every cell of the workload, in order.
func prepareAll(tr *tracer, w workloadDef, seed int64) []prepared {
	cells := make([]prepared, len(w.Cells))
	for i, c := range w.Cells {
		cells[i] = prepare(tr, c, seed)
	}
	return cells
}

// simStats is the paper's headline trio for one run, on the virtual clock.
type simStats struct {
	PeakMs, AvgMs float64
	ScalingS      float64
	// Stable reports every wave launched, completed and re-stabilised. The
	// workload's sim_* means take every drrs cell; the scaling.stable_* means
	// beside them take the stable ones only.
	Stable bool
}

// cellResult is everything one execution of a cell yields.
type cellResult struct {
	ID      string
	Err     error
	Digest  uint64
	Records int64
	Events  uint64
	// VirtualS is the simulated span of the run.
	VirtualS float64
	Sim      simStats
	// WallS covers the timed region: RunWith plus the query set. QueryS is
	// the part spent in the queries.
	WallS, QueryS float64
	AllocBytes    uint64
	Mallocs       uint64
	// GCCycles and GCPauseNs are the collector's activity inside the timed
	// region (the forced collections around it excluded).
	GCCycles  uint32
	GCPauseNs uint64
	// HeapAtEnd is HeapAlloc as the timed region ends, before any forced GC.
	HeapAtEnd uint64
	// RetainedBytes is HeapAlloc after a forced GC with the Outcome live.
	RetainedBytes uint64
}

func mechFactory(name string) func() scaling.Mechanism {
	return func() scaling.Mechanism { return bench.Mechanisms(name) }
}

// queries is the query set every CLI and figure makes on an outcome.
func queries(tr *tracer, id string, out *bench.Outcome) (simStats, uint64) {
	var st simStats
	sp := tr.begin("PeakIn", "metrics", id)
	st.PeakMs = out.PeakIn(out.ScaleAt, out.EndAt)
	sp.end()
	sp = tr.begin("AvgIn", "metrics", id)
	st.AvgMs = out.AvgIn(out.ScaleAt, out.EndAt)
	sp.end()
	sp = tr.begin("TotalScalingPeriod", "metrics", id)
	st.ScalingS = out.TotalScalingPeriod().Seconds()
	sp.end()
	sp = tr.begin("Fitness", "control", id)
	_ = out.Fitness()
	sp.end()
	sp = tr.begin("OutcomeDigest", "bench", id)
	dig := bench.OutcomeDigest(*out)
	sp.end()
	st.Stable = len(out.Waves) > 0
	for i := range out.Waves {
		w := &out.Waves[i]
		st.Stable = st.Stable && w.Scale != nil && w.Done && w.Stabilized
	}
	return st, dig
}

// wallNow reads the host clock for the benchmark's own timing.
func wallNow() time.Time {
	return time.Now() //lint:allow nowallclock the benchmark times the simulator from outside; host time never reaches a simulation
}

// run executes the prepared cell once. The timed region is RunWith plus the
// query set; the GC and MemStats reads around it are outside. A panic
// anywhere inside becomes the result's Err, never a crashed benchmark.
// counts, when non-nil, is filled through the scenario's Inspect hook — the
// traced pass's window onto the live runtime — and visit, when non-nil, sees
// the outcome before it is dropped (nothing may keep it: an Outcome pins its
// whole runtime through MechRef).
func (p *prepared) run(tr *tracer, counts *runtimeCounts, visit func(*cellResult, *bench.Outcome)) (res cellResult) {
	res.ID = p.cell.ID()
	if p.err != nil {
		res.Err = p.err
		return res
	}
	defer func() {
		if r := recover(); r != nil {
			res = cellResult{ID: res.ID, Err: fmt.Errorf("run %s: %v", res.ID, r)}
		}
	}()
	cellSpan := tr.begin("cell", "bench", res.ID)
	defer cellSpan.end()
	sc := p.sc
	if counts != nil {
		sc.Inspect = counts.fill
	}

	// Timed passes start every cell from a collected heap, so a cell pays
	// for its own garbage only. The traced pass skips the forced collections:
	// they would land in its CPU profile as collector time no run causes.
	if tr == nil {
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := wallNow()

	var out bench.Outcome
	var recorded *bench.Outcome
	if p.cell.RoundTrip {
		out, recorded = roundTrip(tr, sc, p.cell.Mechanism, &res)
	} else {
		sp := tr.begin("RunWith", "engine", res.ID)
		out = sc.RunWith(mechFactory(p.cell.Mechanism))
		sp.end()
	}
	tq := wallNow()
	res.Sim, res.Digest = queries(tr, res.ID, &out)
	t1 := wallNow()

	runtime.ReadMemStats(&m1)
	res.WallS = t1.Sub(t0).Seconds()
	res.QueryS = t1.Sub(tq).Seconds()
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.HeapAtEnd = m1.HeapAlloc
	res.Records = out.Throughput.Total()
	res.Events = out.Events
	res.VirtualS = simtime.Duration(out.EndAt).Seconds()
	if recorded != nil && res.Err == nil {
		if d := bench.OutcomeDigest(*recorded); d != res.Digest {
			res.Err = fmt.Errorf("%s: replay digest %016x differs from the recorded run's %016x", res.ID, res.Digest, d)
		}
	}
	if res.Err == nil && sc.Driver == nil && !out.Done {
		res.Err = fmt.Errorf("%s: scripted program did not complete", res.ID)
	}

	if tr == nil {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		res.RetainedBytes = m1.HeapAlloc
	}
	if visit != nil && res.Err == nil {
		visit(&res, &out)
	}
	runtime.KeepAlive(&out)
	return res
}

// roundTrip records the cell's run, pushes the trace through the codec and
// replays it. It returns the replay's outcome and the recorded run's, which
// the caller requires to digest alike (outside the timed region).
func roundTrip(tr *tracer, sc bench.Scenario, mech string, res *cellResult) (bench.Outcome, *bench.Outcome) {
	id := res.ID
	sp := tr.begin("RecordWith", "engine", id)
	recorded, trace := sc.RecordWith(mechFactory(mech))
	sp.end()
	var buf bytes.Buffer
	sp = tr.begin("Trace.Write", "workload", id)
	err := trace.Write(&buf)
	sp.end()
	if err != nil {
		res.Err = fmt.Errorf("%s: encode trace: %w", id, err)
		return recorded, nil
	}
	sp = tr.begin("ReadTrace", "workload", id)
	decoded, err := workload.ReadTrace(&buf)
	sp.end()
	if err != nil {
		res.Err = fmt.Errorf("%s: decode trace: %w", id, err)
		return recorded, nil
	}
	sc.Traffic = workload.Replay(decoded)
	sp = tr.begin("RunWith", "engine", id)
	replayed := sc.RunWith(mechFactory(mech))
	sp.end()
	return replayed, &recorded
}
