package bench

import (
	"slices"
	"strings"
	"testing"

	"drrs/internal/core"
	"drrs/internal/scaling"
)

func TestSweepMegaphoneBatchTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulates several runs")
	}
	t.Parallel()
	pts, err := Harness{}.sweep("twitch", 1, []int{1, 16, 111}, megaphoneBatch)
	if err != nil {
		t.Fatal(err)
	}
	// Megaphone's fundamental trade-off: larger bins migrate faster and
	// propagate less…
	if !(pts[0].MigrationSec > pts[1].MigrationSec && pts[1].MigrationSec > pts[2].MigrationSec) {
		t.Fatalf("migration time should fall with batch size: %+v", pts)
	}
	if !(pts[0].PropMs > pts[1].PropMs && pts[1].PropMs > pts[2].PropMs) {
		t.Fatalf("propagation should fall with batch size: %+v", pts)
	}
	// …and the fine-grained end pays for it in peak latency on a loaded
	// pipeline (every round's alignment stalls the operator again).
	if pts[0].PeakMs <= pts[2].PeakMs {
		t.Fatalf("batch=1 peak %.1f should exceed batch=111 peak %.1f", pts[0].PeakMs, pts[2].PeakMs)
	}
}

func TestSweepSubscaleSize(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulates several runs")
	}
	t.Parallel()
	pts, err := Harness{}.sweep("twitch", 1, []int{1, 128}, subscaleSize)
	if err != nil {
		t.Fatal(err)
	}
	// Full DRRS defaults to subscales of 8 key groups, so the shared table's
	// twitch/1/drrs cell is the subscale=8 point.
	_, eight := subscaleSize(8)
	if got, want := eight().(*core.Mechanism).Opt, core.New(core.FullDRRS()).Opt; got != want {
		t.Fatalf("subscale=8 options %+v differ from full DRRS's %+v", got, want)
	}
	pts = slices.Insert(pts, 1, sweepPoint("subscale=8", sharedRun(t, "twitch", 1, "drrs")))
	// One-group subscales pay per-subscale signal cost: cumulative
	// propagation must exceed the default's.
	if pts[0].PropMs <= pts[1].PropMs {
		t.Fatalf("subscale=1 propagation %.1f should exceed subscale=8's %.1f",
			pts[0].PropMs, pts[1].PropMs)
	}
	// All settings stay within a sane latency envelope — subscale size is a
	// scheduling knob, not a correctness or stability cliff.
	for _, p := range pts {
		if p.PeakMs > 10*pts[1].PeakMs {
			t.Fatalf("setting %s destabilized latency: %+v", p.Label, p)
		}
	}
}

// TestKnobPointsBuildFullDRRS: each DRRS knob point labels its setting and
// builds full DRRS with exactly that one option changed.
func TestKnobPointsBuildFullDRRS(t *testing.T) {
	for _, c := range []struct {
		point func(int) (string, func() scaling.Mechanism)
		v     int
		label string
		set   func(*core.Options)
	}{
		{bufferDepth, 20, "depth=20", func(o *core.Options) { o.BufferDepth = 20 }},
		{nodeConcurrency, 4, "conc=4", func(o *core.Options) { o.NodeConcurrency = 4 }},
	} {
		label, newMech := c.point(c.v)
		want := core.FullDRRS()
		c.set(&want)
		if got, want := newMech().(*core.Mechanism).Opt, core.New(want).Opt; label != c.label || got != want {
			t.Errorf("%s builds %+v, want %s building %+v", label, got, c.label, want)
		}
	}
}

func TestFormatSweep(t *testing.T) {
	out := FormatSweep("title", []SweepPoint{{Label: "x", PeakMs: 1}})
	if !strings.Contains(out, "title") || !strings.Contains(out, "x") {
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
