package faults

import (
	"testing"

	"drrs/internal/simtime"
)

func TestParseSpecFull(t *testing.T) {
	p, err := ParseSpec("crash@12s:node=r1n0,restart=6s; straggle@15s:node=r0n1,factor=0.3,heal=10s;" +
		"uplink@14s:rack=r0,bw=0,heal=8s;ckpt=2s;recovery=1s")
	if err != nil {
		t.Fatal(err)
	}
	if p.CheckpointEvery != 2*simtime.Second || p.RecoveryDelay != simtime.Second {
		t.Fatalf("plan knobs %v/%v", p.CheckpointEvery, p.RecoveryDelay)
	}
	if len(p.Faults) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(p.Faults))
	}
	// Entries sort stably by onset: crash@12s, uplink@14s, straggle@15s.
	if p.Faults[0].Kind != Crash || p.Faults[1].Kind != Uplink || p.Faults[2].Kind != Straggle {
		t.Fatalf("order %v %v %v", p.Faults[0].Kind, p.Faults[1].Kind, p.Faults[2].Kind)
	}
	c := p.Faults[0]
	if c.Node != "r1n0" || c.At != simtime.Sec(12) || c.Restart != simtime.Sec(6) {
		t.Fatalf("crash %+v", c)
	}
	u := p.Faults[1]
	if u.Rack != "r0" || u.Bandwidth != 0 || u.Heal != simtime.Sec(8) {
		t.Fatalf("uplink %+v", u)
	}
	s := p.Faults[2]
	if s.Node != "r0n1" || s.Factor != 0.3 || s.Heal != simtime.Sec(10) {
		t.Fatalf("straggle %+v", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"explode@12s:node=n0",          // unknown kind
		"crash:node=n0",                // missing @time
		"crash@12s",                    // missing node=
		"crash@soon:node=n0",           // bad duration
		"straggle@1s:node=n0",          // missing factor
		"straggle@1s:node=n0,factor=0", // factor must be > 0
		"uplink@1s:bw=0",               // missing rack=
		"crash@1s:node=n0,volume=11",   // unknown arg
		"crash@1s:node",                // arg without =
		"ckpt=fast",                    // bad plan knob
		"retry=-1",                     // retry count must be >= 0
		"retry=many",                   // retry count must be numeric
		"retrybase=soon",               // bad backoff duration
		"retrycap=2x",                  // bad backoff cap
		"crash@1s:node=n0,jitter=lots", // bad jitter value
		// Inputs Spec cannot render back (found by FuzzParseSpec).
		"retrycap=1s",                       // backoff knob without retry
		"crash@-1s:node=n0",                 // negative duration
		"ckpt=-2s",                          // negative knob
		"straggle@1s:node=n0,factor=NaN",    // non-finite factor
		"uplink@1s:rack=r0,bw=+Inf",         // non-finite bandwidth
		"crash@1s:node=n0,jitter=-0.1",      // negative jitter
		"crash@1s:node=n0,factor=2",         // factor off a straggle
		"straggle@1s:node=n0,factor=1,bw=5", // bw off an uplink
		"crash@1s:node=n0 ,restart=0s",      // whitespace-padded value
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestParseSpecEmptyAndDefaults(t *testing.T) {
	p, err := ParseSpec("crash@1s:node=n0")
	if err != nil {
		t.Fatal(err)
	}
	// Plan knobs default only inside the injector; the parsed plan reports
	// what the spec said (zero = default).
	if p.CheckpointEvery != 0 || p.RecoveryDelay != 0 {
		t.Fatalf("unset knobs %v/%v", p.CheckpointEvery, p.RecoveryDelay)
	}
	var filled = *p
	filled.fillDefaults()
	if filled.CheckpointEvery != 2*simtime.Second || filled.RecoveryDelay != simtime.Second {
		t.Fatalf("defaults %v/%v", filled.CheckpointEvery, filled.RecoveryDelay)
	}
	// Blank entries (trailing semicolons, spaces) are ignored.
	if q, err := ParseSpec(" ; crash@1s:node=n0 ; "); err != nil || len(q.Faults) != 1 {
		t.Fatalf("blank-entry handling: %v %+v", err, q)
	}
}

// TestNilInjectorIsSafe pins the nil-plan contract: callers wire the injector
// through unconditionally, so every method on a nil *Injector must be a safe
// no-op — healthy runs pay nothing for the fault layer.
func TestNilInjectorIsSafe(t *testing.T) {
	inj := NewInjector(nil, nil, 7)
	if inj != nil {
		t.Fatal("nil plan must yield a nil injector")
	}
	inj.Start()
	inj.Stop()
	if h, note := inj.Health(); h != 0 || note != "" {
		t.Fatalf("nil Health = %d %q", h, note)
	}
	if st := inj.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if inj.Checkpointer() != nil {
		t.Fatal("nil Checkpointer must be nil")
	}
	var p *Plan
	if p.Spec() != "" {
		t.Fatal("nil plan spec must be empty")
	}
}
