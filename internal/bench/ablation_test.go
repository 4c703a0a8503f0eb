package bench

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"drrs/internal/core"
	"drrs/internal/scaling"
)

// ablationRows is the shared table's seed-1 ablation, by setting.
func ablationRows(t *testing.T) map[string]Row {
	t.Helper()
	res, err := shared.Ablation(1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestAblationSharesCells: subscale=8 and depth=200 are both the registered
// twitch/drrs cell, so the ablation's 15 points run 14 cells, and a second
// call on the same table runs none. Not parallel: the table's size is read
// while no other test adds to it, and the cells run across every core.
func TestAblationSharesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation's 14 cells")
	}
	points, set := 0, map[cell]bool{}
	for _, sw := range ablation {
		for _, v := range sw.vals {
			points++
			set[cell{Scenario: sw.scenario, Seed: 1, Mechanism: sw.mechanism, Knob: setting(sw.knob, v)}] = true
		}
	}
	cells := slices.Collect(maps.Keys(set))
	if points != 15 || len(cells) != 14 {
		t.Fatalf("%d points over %d cells, want 15 over 14", points, len(cells))
	}
	before, held := tableLen(cells)
	h := shared
	h.Workers = 0
	res, err := h.Ablation(1)
	if err != nil {
		t.Fatal(err)
	}
	filled, _ := tableLen(nil)
	if filled-before != len(cells)-held {
		t.Fatalf("the ablation added %d cells, want the %d it lacked", filled-before, len(cells)-held)
	}
	if len(res.Rows) != points {
		t.Fatalf("%d rows for %d points", len(res.Rows), points)
	}
	if _, err := h.Ablation(1); err != nil {
		t.Fatal(err)
	}
	if n, _ := tableLen(nil); n != filled {
		t.Fatalf("a second ablation added %d cells", n-filled)
	}
}

func TestSweepMegaphoneBatchTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the ablation's runs")
	}
	t.Parallel()
	rows := ablationRows(t)
	pts := []Row{rows["batch=1"], rows["batch=16"], rows["batch=111"]}
	// Megaphone's fundamental trade-off: larger bins migrate faster and
	// propagate less…
	if !(pts[0].MigrationSec.Mean > pts[1].MigrationSec.Mean && pts[1].MigrationSec.Mean > pts[2].MigrationSec.Mean) {
		t.Fatalf("migration time should fall with batch size: %+v", pts)
	}
	if !(pts[0].PropDelayMs.Mean > pts[1].PropDelayMs.Mean && pts[1].PropDelayMs.Mean > pts[2].PropDelayMs.Mean) {
		t.Fatalf("propagation should fall with batch size: %+v", pts)
	}
	// …and the fine-grained end pays for it in peak latency on a loaded
	// pipeline (every round's alignment stalls the operator again).
	if pts[0].PeakMs.Mean <= pts[2].PeakMs.Mean {
		t.Fatalf("batch=1 peak %.1f should exceed batch=111 peak %.1f", pts[0].PeakMs.Mean, pts[2].PeakMs.Mean)
	}
}

func TestSweepSubscaleSize(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the ablation's runs")
	}
	t.Parallel()
	rows := ablationRows(t)
	// One-group subscales pay per-subscale signal cost: cumulative
	// propagation must exceed the default's (subscales of 8 key groups).
	one, def := rows["subscale=1"], rows["subscale=8"]
	if one.PropDelayMs.Mean <= def.PropDelayMs.Mean {
		t.Fatalf("subscale=1 propagation %.1f should exceed subscale=8's %.1f",
			one.PropDelayMs.Mean, def.PropDelayMs.Mean)
	}
	// All settings stay within a sane latency envelope — subscale size is a
	// scheduling knob, not a correctness or stability cliff.
	for _, label := range []string{"subscale=1", "subscale=4", "subscale=32", "subscale=128"} {
		if p := rows[label]; p.PeakMs.Mean > 10*def.PeakMs.Mean {
			t.Fatalf("setting %s destabilized latency: %+v", label, p)
		}
	}
}

// TestKnobPointsBuildFullDRRS: a DRRS knob builds full DRRS with exactly its
// one option changed, the batch knob Megaphone with its batch, and a knob at
// its registered value is the zero knob, which builds what the registered
// constructor does.
func TestKnobPointsBuildFullDRRS(t *testing.T) {
	for _, c := range []struct {
		knob string
		v    int
		set  func(*core.Options)
	}{
		{"subscale", 32, func(o *core.Options) { o.SubscaleKGs = 32 }},
		{"depth", 20, func(o *core.Options) { o.BufferDepth = 20 }},
		{"conc", 4, func(o *core.Options) { o.NodeConcurrency = 4 }},
	} {
		want := core.FullDRRS()
		c.set(&want)
		if got, want := setting(c.knob, c.v).mechanism("drrs").(*core.Mechanism).Opt, core.New(want).Opt; got != want {
			t.Errorf("%s=%d builds %+v, want %+v", c.knob, c.v, got, want)
		}
	}
	if got, want := setting("batch", 16).mechanism("megaphone"), scaling.Megaphone(16); !reflect.DeepEqual(got, want) {
		t.Errorf("batch=16 builds %+v, want %+v", got, want)
	}
	for name, v := range registered {
		if got := setting(name, v); got != (knob{}) {
			t.Errorf("%s at its registered %d is %+v, want the zero knob", name, v, got)
		}
	}
	// core fills in a zero BufferDepth only where it scans, so depth=200
	// builds different options from the registered drrs but runs the same.
	for _, c := range []struct{ knob, mech string }{{"subscale", "drrs"}, {"conc", "drrs"}, {"batch", "megaphone"}} {
		k := knob{Name: c.knob, Value: registered[c.knob]}
		if got, want := k.mechanism(c.mech), Mechanisms(c.mech); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v builds %+v, want the registered %s's %+v", k, got, c.mech, want)
		}
	}
}

func TestFormatSweep(t *testing.T) {
	out := FormatSweep("title", []string{"x"}, map[string]Row{"x": {PeakMs: Stat{Mean: 1}}})
	if !strings.Contains(out, "title") || !strings.Contains(out, "x") || !strings.Contains(out, "1.0") {
		t.Fatalf("bad table: %s", out)
	}
}

func TestSparkline(t *testing.T) {
	o := sharedRun(t, "twitch", 7, "no-scale")
	sp := Sparkline(o, 1e6, 0, o.EndAt)
	if sp == "" {
		t.Fatal("empty sparkline from a populated run")
	}
	if !strings.Contains(sp, "max") {
		t.Fatal("sparkline should annotate its max")
	}
}
