package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strings"

	"drrs/internal/bench"
)

// options are the knobs of one invocation.
type options struct {
	Seed int64
	// Reps is the number of timed passes when Seconds is 0.
	Reps int
	// Seconds, when positive, replaces Reps: timed passes repeat until this
	// much host time has been measured (at least two, for the digest check).
	Seconds float64
	// Traced adds the traced pass (per-layer metrics) after the timed ones.
	Traced bool
	// TracePath, when set, receives the traced pass's spans.
	TracePath string
	// Reference holds the checked-in per-cell digests (nil: none loaded).
	Reference *referenceFile
}

// quartiles returns Q1, median, Q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), so numbers agree with the driver's arithmetic.
func quartiles(vals []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return v[0]
		}
		if j >= n {
			return v[n-1]
		}
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// setupOnce constructs every cell's scenario and runs the first cell once,
// untimed by the passes: what a user pays before the first result.
func setupOnce(w workloadDef, seed int64) (cells []prepared, buildS, totalS float64) {
	t0 := wallNow()
	cells = prepareAll(nil, w, seed)
	buildS = wallNow().Sub(t0).Seconds()
	if len(cells) > 0 {
		cells[0].run(nil, nil, nil)
	}
	return cells, buildS, wallNow().Sub(t0).Seconds()
}

// minSetups is how many set-ups setup_s is the median of: one runs before
// every timed pass, and more follow the passes until there are this many.
const minSetups = 5

// pass is one execution of every cell, in order.
type pass struct {
	Cells []cellResult
	// WallS is the raw wall time of the cells that ran without error.
	WallS float64
	// Speed is the box's speed during the pass relative to the calibration
	// reference (0 for the traced pass, which runs no units).
	Speed float64
}

// calibShare is the share of a timed pass's cell time that is spent, beside
// it, on calibration units: one unit's time is itself noisy (about a tenth,
// the box's speed flickers at that scale), so a pass's speed is taken from
// enough of them to be good to about 2 %.
const calibShare = 0.12

// runPass executes every cell once. A timed pass (tr == nil) runs
// calibration units between the cells, outside their timed regions: at least
// one before each cell, and as many as keep calibration at calibShare of the
// cell time so far, so the box's speed is sampled where the time is spent.
// The traced pass is not calibrated: its profile should hold the program
// only, and its wall time is compared raw with the timed passes beside it.
func runPass(tr *tracer, cells []prepared, counts []runtimeCounts, visit func(int, *cellResult, *bench.Outcome)) pass {
	p := pass{Cells: make([]cellResult, len(cells))}
	var unitS []float64
	calibS := 0.0
	calibrate := func() {
		if tr != nil {
			return
		}
		for more := true; more; more = calibS < calibShare*p.WallS {
			u := calibUnit()
			unitS = append(unitS, u)
			calibS += u
		}
	}
	for i := range cells {
		var rc *runtimeCounts
		var v func(*cellResult, *bench.Outcome)
		if counts != nil {
			rc = &counts[i]
		}
		if visit != nil {
			v = func(res *cellResult, out *bench.Outcome) { visit(i, res, out) }
		}
		calibrate()
		p.Cells[i] = cells[i].run(tr, rc, v)
		if p.Cells[i].Err == nil {
			p.WallS += p.Cells[i].WallS
		}
	}
	calibrate()
	if len(unitS) > 0 {
		p.Speed = boxSpeed(unitS)
	}
	return p
}

// check is one correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// cellSummary is a cell's line in the report.
type cellSummary struct {
	ID        string  `json:"id"`
	Seed      int64   `json:"seed"`
	Digest    string  `json:"digest"`
	Records   int64   `json:"records"`
	Events    uint64  `json:"events"`
	WallMsP50 float64 `json:"wall_ms_p50"`
	Failed    bool    `json:"failed"`
	Error     string  `json:"error,omitempty"`
}

// metricValue is one reported number with its definition and, for host-side
// end-to-end metrics, the spread over the timed passes.
type metricValue struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound"`
	Kind   string   `json:"kind"`
	Clock  string   `json:"clock"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	N      int      `json:"n,omitempty"`
}

// workloadReport is everything measured for one workload.
type workloadReport struct {
	Name        string `json:"name"`
	Why         string `json:"why"`
	Cells       int    `json:"cells"`
	CellsFailed int    `json:"cells_failed"`
	TimedPasses int    `json:"timed_passes"`
	Traced      bool   `json:"traced"`
	// PassWallRawS is each timed pass's raw wall time and PassBoxSpeed the box
	// speed it was normalised by (1 = the reference box): wall_s is the
	// median of their products. WallRawS and BoxSpeed are their medians.
	PassWallRawS []float64 `json:"pass_wall_raw_s"`
	PassBoxSpeed []float64 `json:"pass_box_speed_frac"`
	WallRawS     float64   `json:"wall_raw_s"`
	BoxSpeed     float64   `json:"box_speed_frac"`
	// ProfileTotalS is the traced pass's CPU-profile total; the *.cpu_s
	// metrics sum to it.
	ProfileTotalS float64       `json:"profile_total_s,omitempty"`
	EndToEnd      []metricValue `json:"end_to_end"`
	PerLayer      []metricValue `json:"per_layer,omitempty"`
	Checks        []check       `json:"checks"`
	CellDetail    []cellSummary `json:"cell_detail"`
	Notes         []string      `json:"notes,omitempty"`
}

func (r *workloadReport) correct() bool {
	if r.CellsFailed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *workloadReport) metric(name string) (metricValue, bool) {
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range r.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// measureWorkload runs set-up, the timed passes and (when asked) the traced
// pass with its kernels and profile, and assembles the report.
func measureWorkload(w workloadDef, opt options) workloadReport {
	rep := workloadReport{Name: w.Name, Why: w.Why, Cells: len(w.Cells), Traced: opt.Traced}

	// Set-up runs before every timed pass and then until it has run
	// minSetups times, so its samples span the same stretch of host time as
	// the passes do. Each is bracketed by calibration units, and each pass
	// uses the scenarios the set-up before it constructed.
	var cells []prepared
	var setupS, buildS []float64
	setUp := func() {
		unitS := []float64{calibUnit(), calibUnit(), 0, 0}
		var b, s float64
		cells, b, s = setupOnce(w, opt.Seed)
		unitS[2], unitS[3] = calibUnit(), calibUnit()
		buildS = append(buildS, b)
		setupS = append(setupS, s*boxSpeed(unitS))
	}

	// Timed passes, tracing off.
	var passes []pass
	measured := 0.0
	for {
		if opt.Seconds > 0 {
			budget := opt.Seconds
			if opt.Traced && len(passes) > 0 {
				// The traced pass is part of the measuring time.
				budget -= passes[len(passes)-1].WallS
			}
			if len(passes) >= 2 && measured >= budget {
				break
			}
		} else if len(passes) >= opt.Reps {
			break
		}
		setUp()
		p := runPass(nil, cells, nil, nil)
		passes = append(passes, p)
		measured += p.WallS
	}
	for len(setupS) < minSetups {
		setUp()
	}
	rep.TimedPasses = len(passes)

	// A cell fails on its first error, or when any pass digests differently
	// from the first.
	failed := make([]error, len(cells))
	verify := func(p pass, label string) {
		for i := range p.Cells {
			c, first := &p.Cells[i], &passes[0].Cells[i]
			switch {
			case failed[i] != nil:
			case c.Err != nil:
				failed[i] = c.Err
			case c.Digest != first.Digest:
				failed[i] = fmt.Errorf("%s: %s digest %016x differs from the first pass's %016x", c.ID, label, c.Digest, first.Digest)
			}
		}
	}
	for _, p := range passes {
		verify(p, "timed-pass")
	}
	var tp *tracedPass
	if opt.Traced {
		tp = runTracedPass(w, cells, opt)
		verify(tp.pass, "traced-pass")
	}

	twins, twinNotes := twinCheck(cells, passes[0], tp)
	rep.Checks = append(rep.Checks, twins)
	rep.Notes = append(rep.Notes, twinNotes...)
	if tp != nil {
		rep.Checks = append(rep.Checks, tp.checks...)
	}
	for i := range cells {
		if failed[i] != nil {
			rep.CellsFailed++
		}
	}

	// A failed cell contributes no time, records or memory to any pass. Host
	// time is normalised: raw seconds times the pass's box speed, i.e. the
	// seconds the reference box would have taken.
	ok := func(i int) bool { return failed[i] == nil }
	var records int64
	var sim simStats
	drrs := 0
	for i := range cells {
		if !ok(i) {
			continue
		}
		c0 := &passes[0].Cells[i]
		records += c0.Records
		if cells[i].cell.Mechanism == "drrs" {
			drrs++
			sim.PeakMs += c0.Sim.PeakMs
			sim.AvgMs += c0.Sim.AvgMs
			sim.ScalingS += c0.Sim.ScalingS
		}
	}
	perCellWall := make([][]float64, len(cells))
	var passWall, passRps, passAlloc, passRetained []float64
	for _, p := range passes {
		var raw, alloc, retained float64
		for i := range p.Cells {
			if !ok(i) {
				continue
			}
			c := &p.Cells[i]
			perCellWall[i] = append(perCellWall[i], c.WallS*p.Speed)
			raw += c.WallS
			alloc += float64(c.AllocBytes)
			retained = math.Max(retained, float64(c.RetainedBytes))
		}
		rep.PassWallRawS = append(rep.PassWallRawS, raw)
		rep.PassBoxSpeed = append(rep.PassBoxSpeed, p.Speed)
		passWall = append(passWall, raw*p.Speed)
		passRps = append(passRps, safeDiv(float64(records), raw*p.Speed))
		passAlloc = append(passAlloc, alloc/1e6)
		passRetained = append(passRetained, retained/1e6)
	}
	var cellMedMs []float64
	for i := range cells {
		c0 := &passes[0].Cells[i]
		rep.CellDetail = append(rep.CellDetail, cellSummary{
			ID: c0.ID, Seed: cells[i].seed, Digest: fmt.Sprintf("%016x", c0.Digest),
			Records: c0.Records, Events: c0.Events,
			WallMsP50: median(perCellWall[i]) * 1e3, Failed: !ok(i),
		})
		if ok(i) {
			cellMedMs = append(cellMedMs, median(perCellWall[i])*1e3)
		} else {
			rep.CellDetail[i].Error = failed[i].Error()
		}
	}

	// over reports a host-side metric as the median of its per-pass samples,
	// with the quartiles and range of the same samples.
	over := func(def metricDef, samples []float64) metricValue {
		q1, med, q3 := quartiles(samples)
		lo, hi := samples[0], samples[0]
		for _, s := range samples {
			lo, hi = math.Min(lo, s), math.Max(hi, s)
		}
		return metricValue{Name: def.Name, Value: med, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
			Kind: def.Kind, Clock: def.Clock, Q1: &q1, Q3: &q3, Min: &lo, Max: &hi, N: len(samples)}
	}
	rep.EndToEnd = []metricValue{
		over(endToEnd[0], passWall),
		over(endToEnd[1], passRps),
		over(endToEnd[2], passAlloc),
		over(endToEnd[3], passRetained),
		over(endToEnd[4], setupS),
	}
	simVals := []float64{safeDiv(sim.PeakMs, float64(drrs)), safeDiv(sim.AvgMs, float64(drrs)), safeDiv(sim.ScalingS, float64(drrs))}
	for i, def := range simTrio {
		rep.EndToEnd = append(rep.EndToEnd, metricValue{Name: def.Name, Value: simVals[i], Unit: def.Unit,
			Better: def.Better, Kind: def.Kind, Clock: def.Clock})
	}

	rep.WallRawS, rep.BoxSpeed = median(rep.PassWallRawS), median(rep.PassBoxSpeed)
	if tp != nil {
		q1, pwMed, q3 := quartiles(passWall)
		host := hostSide{
			WallRawS:      rep.WallRawS,
			BoxSpeed:      rep.BoxSpeed,
			BuildMs:       median(buildS) * 1e3,
			CellWallMsP50: median(cellMedMs),
			CellWallMsMax: maxOf(cellMedMs),
			RepSpread:     safeDiv(q3-q1, pwMed),
			TraceOverhead: safeDiv(tp.pass.WallS, rep.WallRawS) - 1,
		}
		rep.PerLayer = perLayerValues(tp, host, rep.CellsFailed)
		rep.ProfileTotalS = tp.profileS
		rep.Notes = append(rep.Notes, tp.notes...)
	}
	return rep
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// twinVerified lists the scenarios on which source emission is known not to
// depend on the mechanism: for these a cell whose Throughput.Total() differs
// from its no-scale twin's is a correctness failure. Elsewhere a difference
// is reported as a note — at HEAD trace-replay under megaphone stops emitting
// about half its records on some seeds (12, 14, 16, 17, 21 of 11–22).
var twinVerified = map[string]bool{
	"twitch": true, "q7": true, "q8": true, "bigcluster-128": true,
	"million-users": true, "diurnal-autoscale": true, "oscillation-guard": true,
}

// twinCheck compares every unfaulted cell's Throughput.Total() with its
// scenario and seed's no-scale twin. Twins missing from the cell list are
// run by the traced pass; without it, only listed twins are compared.
func twinCheck(cells []prepared, first pass, tp *tracedPass) (check, []string) {
	twin := map[string]int64{}
	for i := range cells {
		if cells[i].cell.Mechanism == "no-scale" && first.Cells[i].Err == nil {
			twin[cells[i].twinKey()] = first.Cells[i].Records
		}
	}
	if tp != nil {
		for k, v := range tp.extraTwins {
			twin[k] = v
		}
	}
	compared := 0
	var bad, notes []string
	for i := range cells {
		p := &cells[i]
		if p.err != nil || p.sc.Faults != nil || first.Cells[i].Err != nil {
			continue
		}
		want, ok := twin[p.twinKey()]
		if !ok {
			continue
		}
		compared++
		if got := first.Cells[i].Records; got != want {
			msg := fmt.Sprintf("%s emitted %d records, its no-scale twin %d", p.cell.ID(), got, want)
			if twinVerified[p.cell.Scenario] {
				bad = append(bad, msg)
			} else {
				notes = append(notes, msg+" (not a verified twin pair: informational)")
			}
		}
	}
	c := check{Name: "records equal the no-scale twin", OK: len(bad) == 0,
		Detail: fmt.Sprintf("%d cells compared", compared)}
	if len(bad) > 0 {
		c.Detail = strings.Join(bad, "; ")
	}
	return c, notes
}

// tracedPass is the one extra pass that produces the per-layer numbers.
type tracedPass struct {
	pass       pass
	counts     []runtimeCounts
	tally      tally
	buckets    map[string]float64
	profileS   float64
	kernels    kernelResults
	queryS     float64
	extraTwins map[string]int64
	checks     []check
	notes      []string
	drift      int
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	peakHeap   uint64
}

// hostSide carries the kind-h bench.* numbers computed from the timed passes.
type hostSide struct {
	WallRawS, BoxSpeed                    float64
	BuildMs, CellWallMsP50, CellWallMsMax float64
	RepSpread, TraceOverhead              float64
}

func runTracedPass(w workloadDef, cells []prepared, opt options) *tracedPass {
	tp := &tracedPass{counts: make([]runtimeCounts, len(cells)), extraTwins: map[string]int64{}, buckets: map[string]float64{}}
	tr := newTracer()

	var prof bytes.Buffer
	profErr := pprof.StartCPUProfile(&prof)
	root := tr.begin("traced-pass", "bench", "")
	// The pass constructs its scenarios again, so ScenarioByName and
	// Candidate.Apply get their spans and their share of the profile.
	cells = prepareAll(tr, w, opt.Seed)
	in := kernelInputs{cells: cells, seed: opt.Seed}
	tp.pass = runPass(tr, cells, tp.counts, func(i int, res *cellResult, out *bench.Outcome) {
		tp.tally.add(cells[i].cell, res, out, &tp.counts[i])
		for _, d := range out.Decisions {
			in.snapshots = append(in.snapshots, d.Snapshot)
		}
		in.fitness = append(in.fitness, out.FitnessInput())
	})
	root.end()
	if profErr == nil {
		pprof.StopCPUProfile()
	}

	for i := range tp.pass.Cells {
		c := &tp.pass.Cells[i]
		tp.queryS += c.QueryS
		tp.mallocs += c.Mallocs
		tp.gcCycles += c.GCCycles
		tp.gcPauseNs += c.GCPauseNs
		if c.HeapAtEnd > tp.peakHeap {
			tp.peakHeap = c.HeapAtEnd
		}
	}

	// Profile rollup.
	if profErr != nil {
		tp.notes = append(tp.notes, "CPU profile unavailable: "+profErr.Error())
	} else if samples, err := parseProfile(prof.Bytes()); err != nil {
		tp.notes = append(tp.notes, "CPU profile unreadable: "+err.Error())
	} else {
		tp.buckets, tp.profileS = rollup(samples)
	}

	// No-scale twins that are not cells of their own run once, untimed.
	listed := map[string]bool{}
	for i := range cells {
		if cells[i].cell.Mechanism == "no-scale" {
			listed[cells[i].twinKey()] = true
		}
	}
	for _, p := range distinctScenarios(cells) {
		k := p.twinKey()
		if listed[k] || p.sc.Faults != nil {
			continue
		}
		twin := prepared{cell: cell{Scenario: p.cell.Scenario, Mechanism: "no-scale", SeedOff: p.cell.SeedOff}, seed: p.seed, sc: p.sc}
		sp := tr.begin("twin", "bench", twin.cell.ID())
		res := twin.run(tr, nil, nil)
		sp.end()
		if res.Err == nil {
			tp.extraTwins[k] = res.Records
		}
	}

	// Exactly-once at the sinks, read through Inspect.
	dups, inspected := 0, 0
	for i := range tp.counts {
		if tp.counts[i].filled {
			inspected++
			if cells[i].sc.Faults == nil {
				dups += tp.counts[i].Duplicates
			}
		}
	}
	tp.checks = append(tp.checks, check{Name: "no duplicate sequence numbers at the sinks (unfaulted cells)",
		OK: dups == 0 && inspected > 0, Detail: fmt.Sprintf("%d duplicates over %d inspected runs", dups, inspected)})

	// Kernels, sized by what the pass saw.
	in.keyGroups = tp.tally.rt.KeyGroups
	if n := len(in.fitness); n > 0 {
		in.keys = tp.tally.rt.StateKeys / n
	}
	ksp := tr.begin("kernels", "bench", "")
	kr, err := runKernels(tr, in)
	ksp.end()
	tp.kernels = kr
	kernelsRan := check{Name: "kernels ran", OK: err == nil}
	if err != nil {
		kernelsRan.Detail = err.Error()
	}
	tp.checks = append(tp.checks, kernelsRan)
	if hasFaultCells(cells) {
		c := check{Name: "mini chaos search finds no violation", OK: kr.ChaosViolations == 0}
		if len(kr.ChaosDetail) > 0 {
			c.Detail = kr.ChaosDetail[0]
		}
		tp.checks = append(tp.checks, c)
	}

	// Drift against the checked-in reference: informational, never a failure.
	if opt.Reference != nil {
		tp.drift = opt.Reference.drift(w.Name, opt.Seed, tp.pass.Cells)
	}

	// Reconcile the views.
	if tp.profileS > 0 {
		unattributed := (tp.buckets["rt.other_cpu_s"] + tp.buckets["bench.cpu_s"]) / tp.profileS
		if unattributed > 0.15 {
			tp.notes = append(tp.notes, fmt.Sprintf("profile: rt.other + bench is %.1f%% of CPU (over the 15%% reconciliation limit)", unattributed*100))
		}
	}
	flag2x := func(layer string, est, cpu float64) {
		if est > 0 && cpu > 0 && (est > 2*cpu || cpu > 2*est) {
			tp.notes = append(tp.notes, fmt.Sprintf("%s: kernel estimate %.3fs and profile %.3fs disagree by more than 2x", layer, est, cpu))
		}
	}
	flag2x("simtime", float64(tp.tally.Events)*kr.SchedNsPerEvent/1e9, tp.buckets["simtime.sched_cpu_s"])
	flag2x("netsim", float64(tp.tally.rt.MsgsDelivered)*kr.EdgeNsPerMsg/1e9, tp.buckets["netsim.cpu_s"])

	spans := tr.finish()
	if opt.TracePath != "" {
		if err := writeTraceFile(opt.TracePath, w.Name, opt.Seed, spans); err != nil {
			tp.notes = append(tp.notes, "trace.json not written: "+err.Error())
		}
	}
	return tp
}

// perLayerValues lays the traced pass out in catalogue order.
func perLayerValues(tp *tracedPass, host hostSide, cellsFailed int) []metricValue {
	t, k := &tp.tally, &tp.kernels
	mb := func(b float64) float64 { return b / 1e6 }
	drrs, stable := float64(t.DrrsCells), float64(t.DrrsCellsStable)
	v := map[string]float64{
		"bench.cells":                               float64(len(tp.pass.Cells)),
		"bench.cells_failed":                        float64(cellsFailed),
		"bench.records":                             float64(t.Records),
		"bench.virtual_s":                           t.VirtualS,
		"bench.digest_drift_cells":                  float64(tp.drift),
		"bench.wall_raw_s":                          host.WallRawS,
		"bench.box_speed_frac":                      host.BoxSpeed,
		"bench.scenario_build_ms":                   host.BuildMs,
		"bench.cell_wall_ms_p50":                    host.CellWallMsP50,
		"bench.cell_wall_ms_max":                    host.CellWallMsMax,
		"bench.rep_spread_frac":                     host.RepSpread,
		"bench.trace_overhead_frac":                 host.TraceOverhead,
		"rt.allocs":                                 float64(tp.mallocs),
		"rt.gc_cycles":                              float64(tp.gcCycles),
		"rt.gc_pause_ms":                            float64(tp.gcPauseNs) / 1e6,
		"rt.peak_heap_mb":                           mb(float64(tp.peakHeap)),
		"simtime.events":                            float64(t.Events),
		"simtime.events_per_record":                 safeDiv(float64(t.Events), float64(t.Records)),
		"simtime.kernel_ns_per_event":               k.SchedNsPerEvent,
		"simtime.est_busy_s":                        float64(t.Events) * k.SchedNsPerEvent / 1e9,
		"netsim.edges":                              float64(t.rt.Edges),
		"netsim.msgs_delivered":                     float64(t.rt.MsgsDelivered),
		"netsim.mb_delivered":                       mb(float64(t.rt.BytesDelivred)),
		"netsim.kernel_ns_per_msg":                  k.EdgeNsPerMsg,
		"netsim.est_busy_s":                         float64(t.rt.MsgsDelivered) * k.EdgeNsPerMsg / 1e9,
		"engine.instances_end":                      float64(t.rt.Instances),
		"engine.records_processed":                  float64(t.rt.Processed),
		"engine.hops_per_record":                    safeDiv(float64(t.rt.Processed), float64(t.Records)),
		"engine.lost_records":                       float64(t.rt.LostRecords),
		"engine.kernel_ns_per_hop":                  k.EngineNsPerHop,
		"state.keys_end":                            float64(t.rt.StateKeys),
		"state.mb_end":                              mb(float64(t.rt.StateBytes)),
		"state.key_groups_migrated":                 float64(t.KeyGroupsMigrated),
		"state.kernel_ns_per_putget":                k.StateNsPerPutGet,
		"state.kernel_ns_per_key_migrated":          k.StateNsPerKeyMoved,
		"state.kernel_ns_per_key_snapshot":          k.StateNsPerKeySnap,
		"workload.arrivals":                         float64(k.Arrivals),
		"workload.kernel_ns_per_arrival":            k.WorkloadNsPerArrive,
		"workload.kernel_trace_encode_ns_per_event": k.TraceEncodeNs,
		"workload.kernel_trace_decode_ns_per_event": k.TraceDecodeNs,
		"workload.trace_bytes_per_event":            k.TraceBytesPerEvent,
		"metrics.latency_samples":                   float64(t.LatencySamples),
		"metrics.query_ms":                          tp.queryS * 1e3,
		"metrics.kernel_ns_per_observe":             k.MetricsNsPerObserve,
		"cluster.nodes":                             float64(t.rt.Nodes),
		"cluster.transferred_mb":                    mb(float64(t.TransferredBytes)),
		"cluster.cross_rack_mb":                     mb(float64(t.CrossRack)),
		"cluster.transfer_retries":                  float64(t.TransferRetries),
		"cluster.kernel_ns_per_transfer":            k.ClusterNsPerXfer,
		"cluster.kernel_ns_per_nodeof":              k.ClusterNsPerNodeOf,
		"scaling.operations":                        float64(t.Operations),
		"scaling.waves_stabilized":                  float64(t.WavesStabilized),
		"scaling.drrs_cells_stable":                 stable,
		"scaling.stable_peak_latency_ms":            safeDiv(t.Stable.PeakMs, stable),
		"scaling.stable_avg_latency_ms":             safeDiv(t.Stable.AvgMs, stable),
		"scaling.stable_scaling_period_s":           safeDiv(t.Stable.ScalingS, stable),
		"scaling.lp_propagation_ms":                 safeDiv(t.LpMs, drrs),
		"scaling.ls_suspension_ms":                  safeDiv(t.LsMs, drrs),
		"scaling.ld_dependency_ms":                  safeDiv(t.LdMs, drrs),
		"scaling.migration_ms":                      safeDiv(t.MigMs, drrs),
		"scaling.kernel_plan_us":                    k.PlanUs,
		"control.decisions":                         float64(t.Decisions),
		"control.supersessions":                     float64(t.Supersessions),
		"control.kernel_ns_per_observe":             k.ControlNsPerObserve,
		"control.kernel_ns_per_score":               k.ControlNsPerScore,
		"faults.events":                             float64(t.Faults.Events),
		"faults.crashes":                            float64(t.Faults.Crashes),
		"faults.failed_transfers":                   float64(t.Faults.FailedTransfers),
		"faults.recovered_groups":                   float64(t.Faults.RecoveredGroups),
		"faults.lost_groups":                        float64(t.Faults.LostGroups),
		"faults.records_lost":                       float64(t.Faults.RecordsLost),
		"faults.kernel_us_per_plan":                 k.FaultsUsPerPlan,
		"faults.chaos_violations":                   float64(k.ChaosViolations),
	}
	for _, b := range profileBuckets {
		v[b] = tp.buckets[b]
	}
	out := make([]metricValue, 0, len(perLayer))
	for _, def := range perLayer {
		out = append(out, metricValue{Name: def.Name, Value: v[def.Name], Unit: def.Unit,
			Better: def.Better, Kind: def.Kind, Clock: def.Clock})
	}
	return out
}
