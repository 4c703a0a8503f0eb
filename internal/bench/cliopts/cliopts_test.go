package cliopts

import (
	"flag"
	"path/filepath"
	"testing"

	"drrs/internal/bench"
	"drrs/internal/scaling"
	"drrs/internal/workload"
)

// parse binds a fresh Common onto a throwaway FlagSet and parses args.
func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

func TestBindRegistersSharedFlags(t *testing.T) {
	c := parse(t,
		"-topology", "rack4x4", "-placement", "spread",
		"-driver", "controller", "-policy", "backlog",
		"-faults", "off", "-replay", "x.trace")
	if c.Topology != "rack4x4" || c.Placement != "spread" || c.Driver != "controller" ||
		c.Policy != "backlog" || c.Faults != "off" || c.Replay != "x.trace" {
		t.Fatalf("flags did not land in Common: %+v", c)
	}
}

// writeTrace writes a minimal valid trace file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	trace := workload.Synthesize(workload.Live(workload.Spec{
		Cohorts:  []workload.Cohort{workload.DefaultCohort()},
		Duration: 100,
	}), 1)
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := trace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOverridesCarryEveryFlag: every shared flag lands in the returned value
// — the names verbatim, -faults as a parsed plan or the off marker, -replay
// as the decoded trace — and nowhere else.
func TestOverridesCarryEveryFlag(t *testing.T) {
	ov, err := parse(t, "-topology", "rack4x4", "-placement", "pack", "-driver", "controller",
		"-policy", "backlog", "-faults", "off", "-replay", writeTrace(t)).Overrides()
	if err != nil {
		t.Fatalf("Overrides: %v", err)
	}
	if ov.Topology != "rack4x4" || ov.Placement != "pack" || ov.Driver != "controller" || ov.Policy != "backlog" {
		t.Errorf("names did not carry over: %+v", ov)
	}
	if !ov.NoFaults || ov.Faults != nil {
		t.Errorf("-faults off: NoFaults=%v Faults=%v", ov.NoFaults, ov.Faults)
	}
	if ov.Replay == nil || ov.Replay.SourceParallelism != 1 {
		t.Errorf("-replay did not decode the trace: %v", ov.Replay)
	}

	ov, err = parse(t, "-faults", "crash@12s:node=r0n1,restart=6s;ckpt=2s").Overrides()
	if err != nil {
		t.Fatalf("Overrides: %v", err)
	}
	if ov.NoFaults || ov.Faults == nil || len(ov.Faults.Faults) != 1 {
		t.Errorf("-faults <spec>: NoFaults=%v Faults=%+v", ov.NoFaults, ov.Faults)
	}
	if ov, err = parse(t).Overrides(); err != nil || ov != (bench.Overrides{}) {
		t.Errorf("no flags should yield the zero Overrides: %+v, %v", ov, err)
	}
}

func TestApplyRejectsBadValuesAsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "nonexistent"},
		{"-placement", "nonexistent"},
		{"-driver", "nonexistent"},
		{"-policy", "nonexistent"},
		{"-faults", "gibberish"},
		{"-replay", "does-not-exist.trace"},
	} {
		if _, err := parse(t, args...).Overrides(); err == nil {
			t.Errorf("Overrides(%v) accepted a bad value", args)
		}
	}
}

// TestDriverOverrideReachesRuns exercises the full path: the flags parse into
// an Overrides value, and a scripted scenario rewritten by it runs
// controller-driven.
func TestDriverOverrideReachesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	ov, err := parse(t, "-driver", "controller", "-policy", "backlog").Overrides()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ov.Apply(bench.ScenarioByName("flash-crowd", 1))
	if err != nil {
		t.Fatal(err)
	}
	out := sc.RunWith(func() scaling.Mechanism { return bench.Mechanisms("drrs") })
	if out.Driver != "controller" {
		t.Fatalf("override did not reach the run: driver %q", out.Driver)
	}
}
