package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// driverPerLayer is what BENCHMARK.json lists under per_layer: the exact
// simulated trio followed by the traced pass's catalogue.
func driverPerLayer() []metricDef { return append(append([]metricDef(nil), simTrio...), perLayer...) }

func TestCatalogueWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, simTrio, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: direction %q", m.Name, m.Better)
			}
			if m.Clock == "" || m.Kind == "" {
				t.Errorf("%s: missing clock or kind", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q is defined twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: end-to-end bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, b := range profileBuckets {
		if !seen[b] {
			t.Errorf("profile bucket %q has no metric", b)
		}
	}
	for _, w := range workloads() {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		ids := map[string]bool{}
		for _, c := range w.Cells {
			if ids[c.ID()] {
				t.Errorf("workload %s lists cell %s twice", w.Name, c.ID())
			}
			ids[c.ID()] = true
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the driver's contract file and the
// harness's own catalogue from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their whys differ)", i, spec.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %s/%s/%s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s: bound differs from the catalogue's %g", m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, driverPerLayer(), false)
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %g %g %g", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("got %g %g %g", q1, med, q3)
	}
}

func TestRollupAdoptsUnclaimedLeavesAndSumsToTotal(t *testing.T) {
	samples := []profSample{
		{Stack: []string{"drrs/internal/netsim.(*Edge).TrySend", "drrs/internal/engine.(*Instance).Emit"}, Nanos: 10e6},
		{Stack: []string{"runtime.memmove", "drrs/internal/state.(*Group).Clone", "drrs/internal/engine.x"}, Nanos: 20e6},
		{Stack: []string{"drrs/internal/simtime.(*RNG).Exp", "drrs/internal/workload.next"}, Nanos: 30e6},
		{Stack: []string{"drrs/internal/simtime.(*Scheduler).Step"}, Nanos: 40e6},
		{Stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, Nanos: 50e6},
		{Stack: []string{"runtime.futex", "runtime.schedule"}, Nanos: 60e6},
		{Stack: []string{"runtime.mapaccess2_faststr", "drrs/internal/dataflow.(*Graph).Outputs"}, Nanos: 70e6},
		{Stack: []string{"drrs/internal/scaling/meces.(*Mechanism).fetch"}, Nanos: 80e6},
	}
	b, total := rollup(samples)
	want := map[string]float64{
		"netsim.cpu_s": 0.01, "state.cpu_s": 0.02, "simtime.rng_cpu_s": 0.03, "simtime.sched_cpu_s": 0.04,
		"rt.gc_cpu_s": 0.05, "rt.other_cpu_s": 0.06, "rt.maps_cpu_s": 0.07, "scaling.cpu_s": 0.08,
	}
	var sum float64
	for k, v := range b {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("bucket %s = %g, want %g", k, v, want[k])
		}
	}
	if math.Abs(sum-total) > 1e-12 || math.Abs(total-0.36) > 1e-12 {
		t.Errorf("buckets sum to %g, total %g, want 0.36", sum, total)
	}
}

// toyWorkload is two real cells and one whose mechanism does not exist.
func toyWorkload() workloadDef {
	return workloadDef{Name: "toy", Why: "self-test", Cells: []cell{
		{Scenario: "q8", Mechanism: "no-scale"},
		{Scenario: "q8", Mechanism: "drrs"},
		{Scenario: "q8", Mechanism: "no-such-mechanism"},
	}}
}

func TestToyWorkloadIsReproducibleAndReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six q8 simulations")
	}
	dir := t.TempDir()
	opt := options{Seed: 3, Reps: 2, Traced: true, TracePath: filepath.Join(dir, "trace.json")}
	a := measureWorkload(toyWorkload(), opt)
	b := measureWorkload(toyWorkload(), opt)

	// The unknown mechanism is one failed cell, not a panic, and fails the run.
	if a.CellsFailed != 1 || a.correct() {
		t.Fatalf("cells_failed = %d, correct = %v; want exactly the bogus cell to fail", a.CellsFailed, a.correct())
	}
	if d := a.CellDetail[2]; !d.Failed || !strings.Contains(d.Error, "no-such-mechanism") {
		t.Errorf("bogus cell: %+v", d)
	}
	if a.CellDetail[0].Failed || a.CellDetail[1].Failed {
		t.Errorf("real cells failed: %+v", a.CellDetail[:2])
	}

	// Exact metrics and digests repeat bit for bit.
	for i := range a.CellDetail {
		if a.CellDetail[i].Digest != b.CellDetail[i].Digest || a.CellDetail[i].Records != b.CellDetail[i].Records {
			t.Errorf("cell %s differs between runs", a.CellDetail[i].ID)
		}
	}
	for _, list := range [][]metricValue{a.EndToEnd, a.PerLayer} {
		for _, ma := range list {
			mb, ok := b.metric(ma.Name)
			if !ok {
				t.Fatalf("%s missing from the second run", ma.Name)
			}
			if exactKind(ma.Kind) && ma.Value != mb.Value {
				t.Errorf("exact metric %s: %v then %v", ma.Name, ma.Value, mb.Value)
			}
			if math.IsNaN(ma.Value) || math.IsInf(ma.Value, 0) {
				t.Errorf("%s is %v", ma.Name, ma.Value)
			}
		}
	}

	// Every catalogue metric is reported, in order.
	if len(a.PerLayer) != len(perLayer) || len(a.EndToEnd) != len(endToEnd)+len(simTrio) {
		t.Fatalf("reported %d+%d metrics", len(a.EndToEnd), len(a.PerLayer))
	}
	for _, name := range []string{"wall_s", "records_per_s", "alloc_mb", "retained_heap_mb", "setup_s", "sim_peak_latency_ms"} {
		if m, _ := a.metric(name); m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}

	// The profile buckets sum to the profile total.
	var sum float64
	for _, m := range a.PerLayer {
		if m.Kind == kindProfile {
			sum += m.Value
		}
	}
	if a.ProfileTotalS <= 0 || math.Abs(sum-a.ProfileTotalS) > 1e-9 {
		t.Errorf("profile buckets sum to %g, profile total %g", sum, a.ProfileTotalS)
	}

	// Spans nest: a child lies inside its parent and no self time is negative.
	data, err := os.ReadFile(opt.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	layers, names := map[string]bool{}, map[string]bool{}
	for i, s := range tf.Spans {
		layers[s.Layer] = true
		names[s.Name] = true
		if s.EndUs < s.StartUs {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.SelfUs < -1 {
			t.Errorf("span %d %s has self time %g", i, s.Name, s.SelfUs)
		}
		if s.Parent >= 0 {
			p := tf.Spans[s.Parent]
			if s.Parent >= i || s.StartUs < p.StartUs || s.EndUs > p.EndUs {
				t.Errorf("span %d %s [%g,%g] escapes its parent %s [%g,%g]", i, s.Name, s.StartUs, s.EndUs, p.Name, p.StartUs, p.EndUs)
			}
		}
	}
	for _, n := range []string{"ScenarioByName", "RunWith", "PeakIn", "OutcomeDigest", "kernel:scheduler"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
	for _, l := range []string{"bench", "engine", "metrics", "simtime", "netsim", "state"} {
		if !layers[l] {
			t.Errorf("no span for layer %s", l)
		}
	}
}

func TestResultLineSelectsMetricSets(t *testing.T) {
	rep := workloadReport{Name: "w", Cells: 2}
	for _, m := range endToEnd {
		rep.EndToEnd = append(rep.EndToEnd, metricValue{Name: m.Name, Unit: m.Unit, Kind: m.Kind, Value: 1})
	}
	for _, m := range simTrio {
		rep.EndToEnd = append(rep.EndToEnd, metricValue{Name: m.Name, Unit: m.Unit, Kind: m.Kind, Value: 1})
	}
	for _, m := range perLayer {
		rep.PerLayer = append(rep.PerLayer, metricValue{Name: m.Name, Unit: m.Unit, Kind: m.Kind})
	}
	names := func(defs []metricDef) map[string]bool {
		out := map[string]bool{}
		for _, d := range defs {
			out[d.Name] = true
		}
		return out
	}
	for trace, want := range map[string]map[string]bool{"0": names(endToEnd), "1": names(driverPerLayer())} {
		line := resultFor([]workloadReport{rep}, trace)
		if len(line.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for name := range line.Metrics {
			if !want[name] {
				t.Errorf("-trace %s: unexpected metric %s", trace, name)
			}
		}
		if !line.Correct || line.Attempted != 2 || line.Failed != 0 {
			t.Errorf("-trace %s: %+v", trace, line)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	mk := func(wall, spread float64, lo, hi float64, events float64) document {
		return document{Context: runContext{Seed: 1}, Workloads: []workloadReport{{
			Name: "w",
			EndToEnd: []metricValue{
				{Name: "wall_s", Value: wall, Unit: "s", Better: "lower", Bound: 0.10, Kind: kindEndToEnd,
					Q1: f(wall * (1 - spread/2)), Q3: f(wall * (1 + spread/2)), Min: f(lo), Max: f(hi)},
				{Name: "sim_peak_latency_ms", Value: 100, Unit: "ms", Better: "lower", Kind: kindSim},
			},
			PerLayer: []metricValue{
				{Name: "simtime.events", Value: events, Unit: "count", Better: "lower", Kind: kindCount},
			},
		}}}
	}
	edit := func(d document, fn func(*workloadReport)) document {
		fn(&d.Workloads[0])
		return d
	}
	setup := func(v float64) metricValue {
		return metricValue{Name: "setup_s", Value: v, Unit: "s", Better: "lower", Bound: 0.10, Kind: kindEndToEnd}
	}
	dir := t.TempDir()
	write := func(name string, d document) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := mk(10, 0.02, 9.9, 10.1, 1000)
	cases := []struct {
		name string
		a, b document
		want string
		code int
	}{
		{"same", plain, mk(10.2, 0.02, 10.1, 10.3, 1000), "0 better, 0 worse, 3 unchanged, 0 unresolved", 0},
		{"faster", plain, mk(8, 0.02, 7.9, 8.1, 1000), "1 better, 0 worse, 2 unchanged, 0 unresolved", 0},
		{"slower", plain, mk(12, 0.02, 11.9, 12.1, 1000), "0 better, 1 worse, 2 unchanged, 0 unresolved", 1},
		{"noisy-overlapping", plain, mk(11.5, 0.30, 9.5, 13, 1000), "0 better, 0 worse, 2 unchanged, 1 unresolved", 0},
		{"noisy-but-clear", plain, mk(12, 0.30, 11, 13, 1000), "0 better, 1 worse, 2 unchanged, 0 unresolved", 1},
		{"count-changed", plain, mk(10, 0.02, 9.9, 10.1, 1001), "0 better, 1 worse, 2 unchanged, 0 unresolved", 1},
		{"metric-dropped", plain, edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.PerLayer = nil }),
			"0 better, 1 worse, 2 unchanged, 0 unresolved", 1},
		{"metric-added", edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.PerLayer = nil }), plain,
			"0 better, 1 worse, 2 unchanged, 0 unresolved", 1},
		{"workload-added", plain, document{Context: plain.Context, Workloads: append(mk(10, 0.02, 9.9, 10.1, 1000).Workloads, workloadReport{Name: "w2"})},
			"0 better, 1 worse, 3 unchanged, 0 unresolved", 1},
		{"workload-dropped", plain, document{Context: plain.Context}, "0 better, 1 worse, 0 unchanged, 0 unresolved", 1},
		{"fewer-failures", edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.CellsFailed = 1 }), plain,
			"1 better, 0 worse, 3 unchanged, 0 unresolved", 0},
		{"more-failures", plain, edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.CellsFailed = 1 }),
			"0 better, 1 worse, 3 unchanged, 0 unresolved", 1},
		{"setup-under-the-floor", edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.EndToEnd = append(w.EndToEnd, setup(0.100)) }),
			edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.EndToEnd = append(w.EndToEnd, setup(0.140)) }),
			"0 better, 0 worse, 4 unchanged, 0 unresolved", 0},
		{"setup-over-the-floor", edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.EndToEnd = append(w.EndToEnd, setup(1.0)) }),
			edit(mk(10, 0.02, 9.9, 10.1, 1000), func(w *workloadReport) { w.EndToEnd = append(w.EndToEnd, setup(1.4)) }),
			"0 better, 1 worse, 3 unchanged, 0 unresolved", 1},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		code := compareFiles(write(c.name+"-a.json", c.a), write(c.name+"-b.json", c.b), &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output:\n%s%s", c.name, code, c.code, out.String(), errOut.String())
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-reps", "1"}, {"-compare", "only-one.json"}, {"stray"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out.String(), errOut.String())
		}
	}
}
