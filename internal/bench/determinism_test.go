package bench

import (
	"fmt"
	"testing"

	"drrs/internal/metrics"
)

// requireSameOutcome asserts bit-for-bit equality of everything a run
// measures: scheduler events, record counts, and the full latency series.
func requireSameOutcome(t *testing.T, label string, a, b Outcome) {
	t.Helper()
	if a.Events != b.Events {
		t.Fatalf("%s: events %d vs %d", label, a.Events, b.Events)
	}
	if a.Throughput.Total() != b.Throughput.Total() {
		t.Fatalf("%s: processed %d vs %d", label, a.Throughput.Total(), b.Throughput.Total())
	}
	if a.ScaleAt != b.ScaleAt || a.EndAt != b.EndAt || a.StabilizedAt != b.StabilizedAt {
		t.Fatalf("%s: timeline differs: %v/%v/%v vs %v/%v/%v", label,
			a.ScaleAt, a.EndAt, a.StabilizedAt, b.ScaleAt, b.EndAt, b.StabilizedAt)
	}
	if a.TransferredBytes != b.TransferredBytes || a.CrossRackBytes != b.CrossRackBytes {
		t.Fatalf("%s: migration bytes differ: %d/%d vs %d/%d", label,
			a.TransferredBytes, a.CrossRackBytes, b.TransferredBytes, b.CrossRackBytes)
	}
	pa, pb := a.Latency.Series.Points(), b.Latency.Series.Points()
	if len(pa) != len(pb) {
		t.Fatalf("%s: latency series length %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: latency sample %d differs: %+v vs %+v", label, i, pa[i], pb[i])
		}
	}
	requireSameSeries(t, label+"/throughput", a.Throughput.Series(), b.Throughput.Series())
	if len(a.Waves) != len(b.Waves) {
		t.Fatalf("%s: wave count %d vs %d", label, len(a.Waves), len(b.Waves))
	}
	for i := range a.Waves {
		wa, wb := a.Waves[i], b.Waves[i]
		if wa.ScaleAt != wb.ScaleAt || wa.DoneAt != wb.DoneAt || wa.Done != wb.Done ||
			wa.StabilizedAt != wb.StabilizedAt || wa.Stabilized != wb.Stabilized {
			t.Fatalf("%s: wave %d timeline differs: %+v vs %+v", label, i, wa, wb)
		}
		if wa.Scale.CumulativeSuspension() != wb.Scale.CumulativeSuspension() ||
			wa.Scale.CumulativePropagationDelay() != wb.Scale.CumulativePropagationDelay() ||
			wa.Scale.AvgDependencyOverhead() != wb.Scale.AvgDependencyOverhead() ||
			wa.Scale.MigrationDuration() != wb.Scale.MigrationDuration() ||
			wa.Scale.UnitsMigrated() != wb.Scale.UnitsMigrated() {
			t.Fatalf("%s: wave %d scaling metrics differ: %s vs %s",
				label, i, wa.Scale.Summary(), wb.Scale.Summary())
		}
		requireSameSeries(t, fmt.Sprintf("%s/wave%d/suspension", label, i),
			wa.Scale.SuspensionCurve(), wb.Scale.SuspensionCurve())
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("%s: decision count %d vs %d", label, len(a.Decisions), len(b.Decisions))
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("%s: decision %d differs: %+v vs %+v", label, i, a.Decisions[i], b.Decisions[i])
		}
	}
}

func requireSameSeries(t *testing.T, label string, a, b *metrics.Series) {
	t.Helper()
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatalf("%s: series length %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: sample %d differs: %+v vs %+v", label, i, pa[i], pb[i])
		}
	}
}

// TestTwitchScenarioDeterminism is the regression guard for the fast-path
// overhaul: the same seed must reproduce the run bit for bit — pooled events,
// coalesced edge delivery, and record recycling included. It runs the full
// Twitch scenario twice under DRRS (the scaling path stresses cancellation,
// priority arrivals, and migration scheduling) and once more without scaling.
func TestTwitchScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test simulates ~200 virtual seconds")
	}
	t.Parallel()
	const seed = 7 // the golden cells: the first runs come from the shared table
	a := sharedRun(t, "twitch", seed, "drrs")
	b := TwitchScenario(seed).RunWith(drrsFactory)
	if !a.Done || !b.Done {
		t.Fatal("scaling never completed")
	}
	requireSameOutcome(t, "twitch/drrs", a, b)

	na := sharedRun(t, "twitch", seed, "no-scale")
	nb := TwitchScenario(seed).RunWith(noScale)
	requireSameOutcome(t, "twitch/no-scale", na, nb)
}

// TestFlashCrowdMultiWaveDeterminism extends the bit-for-bit guard to the
// dynamic-scenario track: a shaped workload (flash-crowd spike) driving a
// two-wave program (scale-out 8→12, then scale-back 12→8 planned from the
// actual placement) must reproduce the same run exactly — including each
// wave's own scaling-metrics collector and suspension curve.
func TestFlashCrowdMultiWaveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-wave determinism test simulates ~90 virtual seconds")
	}
	t.Parallel()
	a := sharedRun(t, "flash-crowd", 11, "drrs")
	b := FlashCrowdScenario(11).RunWith(drrsFactory)
	if !a.Done || !b.Done {
		t.Fatal("wave program never completed")
	}
	if len(a.Waves) != 2 {
		t.Fatalf("expected 2 waves, got %d", len(a.Waves))
	}
	if a.Waves[0].FromParallelism != 8 || a.Waves[0].Wave.NewParallelism != 12 ||
		a.Waves[1].FromParallelism != 12 || a.Waves[1].Wave.NewParallelism != 8 {
		t.Fatalf("wave program mismatch: %+v", a.Waves)
	}
	if a.Waves[1].ScaleAt <= a.Waves[0].DoneAt {
		t.Fatal("wave 1 must start after wave 0 completes")
	}
	if a.Waves[0].Scale == a.Waves[1].Scale {
		t.Fatal("waves must collect into separate metrics objects")
	}
	if a.Waves[1].Scale.UnitsMigrated() == 0 {
		t.Fatal("scale-back wave migrated nothing")
	}
	requireSameOutcome(t, "flash-crowd/drrs", a, b)
}

// TestControllerScenarioDeterminism extends the bit-for-bit guard to
// closed-loop driving: a controller sampling the live runtime (backlog,
// throughput buckets, marker latency) and superseding in-flight operations
// must reproduce the identical run — including the decision audit trail —
// at a fixed seed. This is the regression net for any map-iteration or
// wall-clock leak on the controller path.
func TestControllerScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("controller determinism test simulates ~90 virtual seconds")
	}
	t.Parallel()
	a := sharedRun(t, "flash-crowd-reactive", 5, "drrs") // a golden cell
	b := ScenarioByName("flash-crowd-reactive", 5).RunWith(drrsFactory)
	if a.Driver != "controller" {
		t.Fatalf("driver %q, want controller", a.Driver)
	}
	if len(a.Decisions) == 0 {
		t.Fatal("the flash crowd provoked no scaling decisions")
	}
	if len(a.Waves) == 0 {
		t.Fatal("no operation launched")
	}
	requireSameOutcome(t, "flash-crowd-reactive/drrs", a, b)
}

// TestRunParallelMatchesSequential guards the parallel scenario runner: the
// same spec list must produce identical outcomes at any worker count,
// because every run owns its scheduler, RNG streams, and metrics. The
// sequential side comes from the shared table, whose runs go one at a time.
func TestRunParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel-equality test simulates ~200 virtual seconds")
	}
	t.Parallel()
	specs := []RunSpec{
		{Scenario: TwitchScenario(7), Mechanism: "otfs"},
		{Scenario: TwitchScenario(7), Mechanism: "no-scale"},
		{Scenario: TwitchScenario(7), Mechanism: "megaphone"},
	}
	seq := make([]Outcome, len(specs))
	for i, sp := range specs {
		seq[i] = sharedRun(t, sp.Scenario.Name, sp.Scenario.Seed, sp.Mechanism)
	}
	par := RunParallel(specs, len(specs))
	for i := range specs {
		requireSameOutcome(t, specs[i].Mechanism, seq[i], par[i])
		if seq[i].Mechanism != par[i].Mechanism {
			t.Fatalf("mechanism label differs at %d", i)
		}
	}
}
