package policysearch

import (
	"testing"

	"drrs/internal/bench"
	"drrs/internal/control"
	"drrs/internal/fitness"
	"drrs/internal/metrics"
	"drrs/internal/simtime"
)

// testSpace is a deliberately small menu so sweep tests stay fast: 2 policies
// × 2 cadences × 2 debounces (patience/horizon fixed) = 8 grid candidates.
func testSpace() Space {
	return Space{
		Policies:  []string{"backlog", "predictive"},
		Cadences:  []simtime.Duration{500 * simtime.Millisecond, simtime.Second},
		Debounces: []simtime.Duration{simtime.Second, 2 * simtime.Second},
		Patiences: []int{4},
		Horizons:  []simtime.Duration{3 * simtime.Second},
	}
}

func TestGridSkipsDeadKnobs(t *testing.T) {
	g := DefaultSpace().Grid()
	seen := make(map[Candidate]bool)
	for _, c := range g {
		if seen[c] {
			t.Fatalf("grid enumerated %v twice", c)
		}
		seen[c] = true
		if c.Policy == "threshold" && c.Patience != 0 {
			t.Errorf("threshold candidate %v varies dead knob Patience", c)
		}
		if c.Policy != "predictive" && c.Horizon != 0 {
			t.Errorf("%s candidate %v varies dead knob Horizon", c.Policy, c)
		}
	}
	// backlog: 3 cad × 3 deb × 3 pat = 27; predictive: ×3 horizons = 81;
	// threshold: 3×3 = 9.
	if want := 27 + 81 + 9; len(g) != want {
		t.Errorf("grid size %d, want %d", len(g), want)
	}
}

// TestCounterfactualDeterminism is the acceptance bar's first half: replaying
// the same forced intervention twice is bit-for-bit identical — the full
// outcome digest, not just headline numbers.
func TestCounterfactualDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("counterfactual replay simulates four closed-loop runs")
	}
	ivs, err := control.ParseInterventions("k=0:target=14")
	if err != nil {
		t.Fatal(err)
	}
	a, errA := RunCounterfactual(bench.Harness{}, "flash-crowd-reactive", "drrs", 5, ivs)
	b, errB := RunCounterfactual(bench.Harness{}, "flash-crowd-reactive", "drrs", 5, ivs)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if ad, bd := bench.OutcomeDigest(a.Forced), bench.OutcomeDigest(b.Forced); ad != bd {
		t.Errorf("forced replay digests differ: 0x%016x vs 0x%016x", ad, bd)
	}
	if ad, bd := bench.OutcomeDigest(a.Base), bench.OutcomeDigest(b.Base); ad != bd {
		t.Errorf("baseline replay digests differ: 0x%016x vs 0x%016x", ad, bd)
	}
	// The fork must actually fork: decision 0 redirected to the forced
	// target, marked as forced, and the two runs' digests must differ.
	if len(a.Forced.Decisions) == 0 {
		t.Fatal("forced run recorded no decisions")
	}
	d0 := a.Forced.Decisions[0]
	if !d0.Forced || d0.To != 14 {
		t.Errorf("decision 0 = %+v, want Forced with To=14", d0)
	}
	if d0.Snapshot.At != d0.At {
		t.Errorf("decision 0 snapshot taken at %v, decision fired at %v — the trigger evidence is missing", d0.Snapshot.At, d0.At)
	}
	if bench.OutcomeDigest(a.Base) == bench.OutcomeDigest(a.Forced) {
		t.Error("forcing target=14 at decision 0 left the outcome identical — the intervention did nothing")
	}
}

// TestAllNoopMatchesUnscaledRun is the acceptance bar's second half: forcing
// noop at every decision leaves the controller recording decisions but
// launching nothing, so the data plane must evolve exactly as under the
// empty wave program — the nil-mechanism run of the same seeded scenario.
// (Audit-trail fields legitimately differ: the forced run still samples and
// decides; only the actions are dropped.)
func TestAllNoopMatchesUnscaledRun(t *testing.T) {
	if testing.Short() {
		t.Skip("noop equivalence simulates two closed-loop runs")
	}
	ivs, err := control.ParseInterventions("all:noop")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bench.ScenarioByName("flash-crowd-reactive", 5).WithInterventions(ivs)
	if err != nil {
		t.Fatal(err)
	}
	outs := bench.RunParallel([]bench.RunSpec{
		{Scenario: sc, Mechanism: "drrs"},
		{Scenario: bench.ScenarioByName("flash-crowd-reactive", 5), Mechanism: "no-scale"},
	}, 0)
	forced, unscaled := outs[0], outs[1]

	if len(forced.Decisions) == 0 {
		t.Fatal("all-noop run recorded no decisions — the policy never fired, so the test proves nothing")
	}
	for _, d := range forced.Decisions {
		if !d.Forced || d.Launched {
			t.Errorf("decision %d = %+v, want forced and unlaunched", d.Seq, d)
		}
	}
	if len(forced.Waves) != 0 {
		t.Errorf("all-noop run launched %d operations, want 0", len(forced.Waves))
	}

	// Data-plane equivalence, sample for sample.
	eqSeries := func(name string, a, b []metrics.Point) {
		t.Helper()
		if len(a) != len(b) {
			t.Errorf("%s: %d points vs %d", name, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: point %d differs: %+v vs %+v", name, i, a[i], b[i])
				return
			}
		}
	}
	eqSeries("latency", forced.Latency.Series.Points(), unscaled.Latency.Series.Points())
	eqSeries("throughput", forced.Throughput.Series().Points(), unscaled.Throughput.Series().Points())
	if forced.Throughput.Total() != unscaled.Throughput.Total() {
		t.Errorf("records processed: %d vs %d", forced.Throughput.Total(), unscaled.Throughput.Total())
	}
	if forced.TransferredBytes != 0 || unscaled.TransferredBytes != 0 {
		t.Errorf("migration bytes: forced %d, unscaled %d, want 0 and 0", forced.TransferredBytes, unscaled.TransferredBytes)
	}
	// EndAt is deliberately not compared: it is the last *scheduler* event's
	// instant, and the forced run's final cadence tick (control plane, at the
	// horizon) outlives the unscaled run's last data event.
}

// TestGridSearchFront is the acceptance bar for the sweep: the smoke-sized
// grid on flash-crowd-reactive must surface a genuine trade-off — at least
// two non-dominated configurations.
func TestGridSearchFront(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep simulates eight closed-loop runs")
	}
	evs, err := Evaluate(bench.Harness{}, "flash-crowd-reactive", "drrs", testSpace().Grid(), []int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("evaluated %d candidates, want 8", len(evs))
	}
	front := Pareto(evs)
	if len(front) < 2 {
		for _, e := range evs {
			t.Logf("%-40s score %.2f %+v", e.Candidate.Label(), e.Score, e.Components)
		}
		t.Fatalf("Pareto front has %d member(s), want >= 2 non-dominated configurations", len(front))
	}
	// Front members must be mutually non-dominated.
	for i := range front {
		for j := range front {
			if i != j && fitness.Dominates(front[i].Components, front[j].Components) {
				t.Errorf("front member %v dominates front member %v", front[i].Candidate, front[j].Candidate)
			}
		}
	}
}

// TestEvolveDeterministic pins the acceptance bar's last clause: two
// evolutionary sweeps with the same (scenario, search-seed) tuple evaluate
// the same candidates in the same order with identical fitness.
func TestEvolveDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("evolutionary sweep simulates a dozen closed-loop runs")
	}
	cfg := EvolveConfig{
		Scenario:    "flash-crowd-reactive",
		Mechanism:   "drrs",
		Seeds:       []int64{5},
		SearchSeed:  7,
		Population:  4,
		Generations: 2,
		Space:       testSpace(),
	}
	a, errA := Evolve(bench.Harness{}, cfg)
	b, errB := Evolve(bench.Harness{}, cfg)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) == 0 {
		t.Fatal("sweep evaluated no candidates")
	}
	if len(a) != len(b) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Candidate != b[i].Candidate {
			t.Errorf("candidate %d differs: %v vs %v", i, a[i].Candidate, b[i].Candidate)
		}
		if a[i].Components != b[i].Components || a[i].Score != b[i].Score {
			t.Errorf("fitness %d differs: %+v (%.4f) vs %+v (%.4f)",
				i, a[i].Components, a[i].Score, b[i].Components, b[i].Score)
		}
	}
	// A different search seed must explore a different trajectory (the
	// stream is named, so this also guards against the seed being ignored).
	cfg.SearchSeed = 8
	c, err := Evolve(bench.Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i].Candidate != c[i].Candidate {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("search seed 8 explored the identical candidate sequence as seed 7 — the RNG stream is ignoring the seed")
	}
}

// TestCandidatePolicyBeatsOverride pins the one precedence rule where it used
// to break: under a CLI-wide -policy, every candidate of a search ran that
// policy and was ranked under its own label. The candidate is the later, more
// specific rewrite, so its policy is the one the controller runs.
func TestCandidatePolicyBeatsOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two closed-loop runs")
	}
	h := bench.Harness{Overrides: bench.Overrides{Policy: "backlog"}}
	cands := []Candidate{
		{Policy: "predictive", Cadence: 500 * simtime.Millisecond, Debounce: simtime.Second, Patience: 4, Horizon: 3 * simtime.Second},
		{Policy: "threshold", Cadence: 500 * simtime.Millisecond, Debounce: simtime.Second},
	}
	var specs []bench.RunSpec
	for _, c := range cands {
		sc, err := h.Scenario("flash-crowd-reactive", 5)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, bench.RunSpec{Scenario: c.Apply(sc), Mechanism: "drrs"})
	}
	for i, o := range bench.RunParallel(specs, h.Workers) {
		if len(o.Decisions) == 0 {
			t.Fatalf("%s: no decisions — the test proves nothing", cands[i].Label())
		}
		for _, d := range o.Decisions {
			if d.Policy != cands[i].Policy {
				t.Fatalf("%s: decision %d was made by policy %q", cands[i].Label(), d.Seq, d.Policy)
			}
		}
	}
	// And through the search entry point: two candidates that differ only in
	// policy must not collapse onto one score.
	evs, err := Evaluate(h, "flash-crowd-reactive", "drrs", cands, []int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Components == evs[1].Components {
		t.Errorf("predictive and threshold candidates scored identically under -policy backlog: %+v", evs[0].Components)
	}
}
