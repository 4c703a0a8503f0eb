package bench

import (
	"reflect"
	"testing"

	"drrs/internal/faults"
)

// TestOverrideDigests pins what the shared CLI flags do to a run: each row is
// the digest drrs-sim printed for `-workload <scenario> <flags> -seed 1`
// (mechanism drrs) at commit 2ac2be7, when the flags were process globals
// re-resolved inside RunWith, re-recorded once when the streams moved to PCG
// (see goldenDigests). Overrides.Apply must reproduce every one — and
// all eight run as one RunParallel batch, which the globals made impossible:
// specs carrying different Overrides side by side must each digest exactly as
// they did alone (CI runs this under -race).
func TestOverrideDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates eight whole scenarios")
	}
	t.Parallel()
	crash, err := faults.ParseSpec("crash@12s:node=r0n1,restart=6s;ckpt=2s")
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name, scenario string
		ov             Overrides
		want           uint64
	}{
		{"driver+policy", "flash-crowd", Overrides{Driver: "controller", Policy: "threshold"}, 0x30e5ed8c8b7636b5},
		{"driver-script", "flash-crowd-reactive", Overrides{Driver: "script"}, 0x082881e0b344acef},
		{"policy-only", "flash-crowd-reactive", Overrides{Policy: "predictive"}, 0x28e8d16402c01143},
		{"placement", "rack-skew", Overrides{Placement: "pack"}, 0x89e8255187ea170a},
		{"topology", "flash-crowd", Overrides{Topology: "rack4x4"}, 0x54243c85d7ac4209},
		{"faults-off", "node-loss-mid-migrate", Overrides{NoFaults: true}, 0x98ee698e908ceb83},
		{"faults-spec", "straggler-rack", Overrides{Faults: crash}, 0x2ac04d2d852b61cd},
		{"all", "flash-crowd", Overrides{Topology: "rack4x4", Placement: "spread", Driver: "controller", Faults: crash}, 0x73f63ca439798563},
	}
	specs := make([]RunSpec, len(rows))
	for i, c := range rows {
		sc, err := c.ov.Apply(ScenarioByName(c.scenario, 1))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = RunSpec{Scenario: sc, Mechanism: "drrs"}
	}
	for i, o := range RunParallel(specs, 0) {
		if got := OutcomeDigest(o); got != rows[i].want {
			t.Errorf("%s: digest 0x%016x, want 0x%016x — Overrides.Apply no longer reproduces the CLI flags' behaviour",
				rows[i].name, got, rows[i].want)
		}
	}
}

// TestApplyClonesControllerDriver: a scenario's *ControllerDriver may be
// shared by every run built from it, so Apply must rewrite a copy.
func TestApplyClonesControllerDriver(t *testing.T) {
	sc := ScenarioByName("flash-crowd-reactive", 1)
	own := sc.Driver
	before := *own
	for _, ov := range []Overrides{{Policy: "predictive"}, {Driver: "controller", Policy: "threshold"}} {
		out, err := ov.Apply(sc)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Driver
		if got == own {
			t.Fatalf("%+v: Apply handed back the scenario's own driver", ov)
		}
		if got.Policy != ov.Policy || got.Min != own.Min || got.Max != own.Max {
			t.Errorf("%+v: rewritten driver %+v lost the policy or the scenario's calibration", ov, got)
		}
	}
	if !reflect.DeepEqual(*own, before) {
		t.Fatalf("Apply wrote through the scenario's driver: %+v, was %+v", *own, before)
	}
	if out, _ := (Overrides{Driver: "script"}).Apply(sc); out.Driver != nil {
		t.Errorf("-driver script should fall back to the scripted program, got %q", out.ProgramString())
	}
}
