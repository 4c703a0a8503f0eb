package faults

import (
	"testing"

	"drrs/internal/simtime"
)

func genCfg() GenConfig {
	return GenConfig{
		Nodes: []string{"r0n0", "r0n1", "r1n0"},
		Racks: []string{"r0", "r1"},
	}
}

// TestGenerateDeterministic pins the fuzzer's core contract: the (seed,
// config) pair fully determines the plan, so a violation replays from its
// seed alone.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(simtime.NewRNG(42, "chaos/x"), genCfg())
	b := Generate(simtime.NewRNG(42, "chaos/x"), genCfg())
	if a.Spec() != b.Spec() {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a.Spec(), b.Spec())
	}
	c := Generate(simtime.NewRNG(43, "chaos/x"), genCfg())
	if a.Spec() == c.Spec() {
		t.Fatalf("seeds 42 and 43 drew the identical plan %q", a.Spec())
	}
	d := Generate(simtime.NewRNG(42, "chaos/y"), genCfg())
	if a.Spec() == d.Spec() {
		t.Fatalf("distinct RNG streams drew the identical plan %q", a.Spec())
	}
}

// TestGenerateBounds checks every drawn value lands inside the generator's
// bounds, across enough seeds to exercise all three kinds.
func TestGenerateBounds(t *testing.T) {
	cfg := genCfg()
	nodes := map[string]bool{"r0n0": true, "r0n1": true, "r1n0": true}
	racks := map[string]bool{"r0": true, "r1": true}
	kinds := map[Kind]int{}
	for seed := int64(0); seed < 40; seed++ {
		p := Generate(simtime.NewRNG(seed, "bounds"), cfg)
		if len(p.Faults) < minFaults || len(p.Faults) > maxFaults {
			t.Fatalf("seed %d: %d faults outside [%d,%d]", seed, len(p.Faults), minFaults, maxFaults)
		}
		for i, f := range p.Faults {
			kinds[f.Kind]++
			if f.At < onset || f.At >= onset+window {
				t.Fatalf("seed %d: onset %v outside [%v,%v)", seed, f.At, onset, onset+window)
			}
			if f.At%simtime.Millisecond != 0 {
				t.Fatalf("seed %d: onset %v not ms-quantized", seed, f.At)
			}
			if i > 0 && f.At < p.Faults[i-1].At {
				t.Fatalf("seed %d: faults not sorted by onset", seed)
			}
			if f.Jitter != 0 {
				t.Fatalf("seed %d: generated plans must not carry jitter", seed)
			}
			switch f.Kind {
			case Crash:
				if !nodes[f.Node] {
					t.Fatalf("seed %d: crash target %q not in config", seed, f.Node)
				}
				if f.Restart != 0 && (f.Restart < restartMin || f.Restart > restartMax) {
					t.Fatalf("seed %d: restart %v outside bounds", seed, f.Restart)
				}
			case Straggle:
				if !nodes[f.Node] {
					t.Fatalf("seed %d: straggle target %q not in config", seed, f.Node)
				}
				if f.Factor < 0.2 || f.Factor > 0.6+1e-9 {
					t.Fatalf("seed %d: factor %g outside menu", seed, f.Factor)
				}
				if f.Heal < healMin || f.Heal > healMax {
					t.Fatalf("seed %d: heal %v outside bounds", seed, f.Heal)
				}
			case Uplink:
				if !racks[f.Rack] {
					t.Fatalf("seed %d: uplink target %q not in config", seed, f.Rack)
				}
				if f.Heal < healMin || f.Heal > healMax {
					t.Fatalf("seed %d: heal %v outside bounds", seed, f.Heal)
				}
			}
		}
	}
	for _, k := range []Kind{Crash, Straggle, Uplink} {
		if kinds[k] == 0 {
			t.Fatalf("40 seeds never drew a %s fault", k)
		}
	}
}

// TestGenerateSpecRoundTrip: every generated plan survives Spec → ParseSpec
// unchanged — the property that makes a shrunk repro string authoritative.
func TestGenerateSpecRoundTrip(t *testing.T) {
	cfg := genCfg()
	cfg.Retries = 2
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(simtime.NewRNG(seed, "roundtrip"), cfg)
		q, err := ParseSpec(p.Spec())
		if err != nil {
			t.Fatalf("seed %d: ParseSpec(%q): %v", seed, p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Fatalf("seed %d: round trip changed the plan:\n  %s\n  %s", seed, p.Spec(), q.Spec())
		}
	}
}

// TestGenerateNoTargets: with nothing to fault, the plan is empty (but keeps
// the pass-through knobs).
func TestGenerateNoTargets(t *testing.T) {
	p := Generate(simtime.NewRNG(1, "none"), GenConfig{Retries: 3})
	if len(p.Faults) != 0 {
		t.Fatalf("targetless config generated %d faults", len(p.Faults))
	}
	if p.TransferRetries != 3 {
		t.Fatalf("retry knob dropped: %d", p.TransferRetries)
	}
}

// TestGenerateNodesOnly: without racks, no uplink faults are drawn (and vice
// versa) — the kind weights collapse to the available targets.
func TestGenerateNodesOnly(t *testing.T) {
	cfg := GenConfig{Nodes: []string{"n0"}}
	for seed := int64(0); seed < 10; seed++ {
		for _, f := range Generate(simtime.NewRNG(seed, "n"), cfg).Faults {
			if f.Kind == Uplink {
				t.Fatalf("rackless config drew an uplink fault")
			}
		}
	}
	cfg = GenConfig{Racks: []string{"r0"}}
	for seed := int64(0); seed < 10; seed++ {
		for _, f := range Generate(simtime.NewRNG(seed, "r"), cfg).Faults {
			if f.Kind != Uplink {
				t.Fatalf("nodeless config drew a %s fault", f.Kind)
			}
		}
	}
}
