package faults

import (
	"reflect"
	"testing"

	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
)

// injectorHarness builds the smallest runtime an injector can drive: one
// silent source feeding a keyed operator "agg" (8 key groups) on the
// cluster's default node "local", plus a two-node rack. Fault mechanics
// (speed factors, uplink state, heal timers, onset jitter, crash wipes) act
// on the cluster, scheduler and stores alone, so no traffic needs to flow.
func injectorHarness(t *testing.T, plan *Plan, seed int64) (*simtime.Scheduler, *cluster.Cluster, *Injector) {
	t.Helper()
	s := simtime.NewScheduler()
	cl := cluster.New(s)
	cl.AddRack("r0", 8<<20, simtime.Ms(1))
	cl.AddNode("n0", 1.0, 16<<20).Rack = "r0"
	cl.AddNode("n1", 1.0, 16<<20).Rack = "r0"
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(ctx dataflow.SourceContext) {},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "agg", Parallelism: 1, KeyedInput: true, MaxKeyGroups: 8,
		NewLogic: func() dataflow.Logic { return &engine.KeyedReduceLogic{} },
	})
	g.Connect("src", "agg", dataflow.ExchangeKeyed)
	rt := engine.New(s, g, cl, engine.Config{Seed: seed, MarkerInterval: -1})
	rt.Start()
	inj := NewInjector(rt, plan, seed)
	inj.Start()
	return s, cl, inj
}

// TestStraggleHealScheduling: a straggle fault multiplies the node's speed at
// onset and the heal timer restores the original speed, both on schedule.
func TestStraggleHealScheduling(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Straggle, At: simtime.Sec(1), Node: "n0", Factor: 0.5, Heal: simtime.Sec(2)},
	}}
	s, cl, inj := injectorHarness(t, plan, 1)
	defer inj.Stop()
	s.RunUntil(simtime.Time(simtime.Ms(999)))
	if sp := cl.Node("n0").Speed; sp != 1.0 {
		t.Fatalf("speed %g before onset", sp)
	}
	s.RunUntil(simtime.Time(simtime.Ms(1500)))
	if sp := cl.Node("n0").Speed; sp != 0.5 {
		t.Fatalf("speed %g during straggle, want 0.5", sp)
	}
	s.RunUntil(simtime.Time(simtime.Ms(2999)))
	if sp := cl.Node("n0").Speed; sp != 0.5 {
		t.Fatalf("speed %g before heal, want 0.5", sp)
	}
	s.RunUntil(simtime.Time(simtime.Ms(3001)))
	if sp := cl.Node("n0").Speed; sp != 1.0 {
		t.Fatalf("speed %g after heal, want 1.0", sp)
	}
	if ev, _ := inj.Health(); ev != 1 {
		t.Fatalf("disruptions %d, want 1 (heal is not a disruption)", ev)
	}
}

// TestUplinkHealScheduling: partition flips Rack.Down at onset and the heal
// restores both flags; a degrade variant restores the original bandwidth.
func TestUplinkHealScheduling(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Uplink, At: simtime.Sec(1), Rack: "r0", Bandwidth: 0, Heal: simtime.Sec(1)},
		{Kind: Uplink, At: simtime.Sec(4), Rack: "r0", Bandwidth: 256 << 10, Heal: simtime.Sec(1)},
	}}
	s, cl, inj := injectorHarness(t, plan, 1)
	defer inj.Stop()
	r := cl.Rack("r0")
	s.RunUntil(simtime.Time(simtime.Ms(1500)))
	if !r.Down {
		t.Fatal("rack not partitioned at onset")
	}
	s.RunUntil(simtime.Time(simtime.Ms(2500)))
	if r.Down || r.UplinkBandwidth != 8<<20 {
		t.Fatalf("partition heal incomplete: down=%v bw=%g", r.Down, r.UplinkBandwidth)
	}
	s.RunUntil(simtime.Time(simtime.Ms(4500)))
	if r.Down || r.UplinkBandwidth != 256<<10 {
		t.Fatalf("degrade not applied: down=%v bw=%g", r.Down, r.UplinkBandwidth)
	}
	s.RunUntil(simtime.Time(simtime.Ms(5500)))
	if r.UplinkBandwidth != 8<<20 {
		t.Fatalf("degrade heal restored bw=%g, want original", r.UplinkBandwidth)
	}
}

// straggleOnsetAt runs one jittered straggle plan and samples (on a 1 ms
// grid) when the speed change lands.
func straggleOnsetAt(t *testing.T, seed int64, jitter float64) simtime.Duration {
	t.Helper()
	plan := &Plan{Faults: []Fault{
		{Kind: Straggle, At: simtime.Sec(2), Node: "n0", Factor: 0.5, Jitter: jitter},
	}}
	s, cl, inj := injectorHarness(t, plan, seed)
	defer inj.Stop()
	for at := simtime.Ms(1000); at <= simtime.Ms(4000); at += simtime.Ms(1) {
		s.RunUntil(simtime.Time(at))
		if cl.Node("n0").Speed != 1.0 {
			return at
		}
	}
	t.Fatalf("seed %d: jittered fault never fired in [1s,4s]", seed)
	return 0
}

// TestJitterScheduling: per-fault jitter draws from the dedicated "faults"
// stream — deterministic per seed, onset stays inside At·(1±jitter), and a
// zero jitter fires exactly on schedule.
func TestJitterScheduling(t *testing.T) {
	if exact := straggleOnsetAt(t, 5, 0); exact != simtime.Ms(2000) {
		t.Fatalf("unjittered onset observed at %v, want 2s", exact)
	}
	a := straggleOnsetAt(t, 5, 0.25)
	b := straggleOnsetAt(t, 5, 0.25)
	if a != b {
		t.Fatalf("same seed jittered to %v then %v", a, b)
	}
	if lo, hi := simtime.Ms(1500), simtime.Ms(2501); a < lo || a > hi {
		t.Fatalf("jittered onset %v outside [%v, %v]", a, lo, hi)
	}
	seen := map[simtime.Duration]bool{a: true}
	for seed := int64(6); seed < 12; seed++ {
		seen[straggleOnsetAt(t, seed, 0.25)] = true
	}
	if len(seen) < 2 {
		t.Fatal("seven seeds produced one identical jittered onset")
	}
}

// TestRecoveryOffLeavesVictimsDead: a crash under "recovery=off" wipes the
// keyed instance's groups and never revives it — nothing is recovered, lost
// or relocated — while the same crash under the default delay is revived
// with every wiped group accounted. The off plan round-trips through Spec.
func TestRecoveryOffLeavesVictimsDead(t *testing.T) {
	for _, c := range []struct {
		spec string
		dead bool
	}{
		{"recovery=off;crash@1s:node=local", true},
		{"crash@1s:node=local", false},
	} {
		plan, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if q, err := ParseSpec(plan.Spec()); err != nil || !reflect.DeepEqual(plan, q) {
			t.Fatalf("%q renders as %q, which parses to %+v (%v)", c.spec, plan.Spec(), q, err)
		}
		if off := plan.RecoveryDelay < 0; off != c.dead {
			t.Fatalf("%q parsed to recovery delay %v", c.spec, plan.RecoveryDelay)
		}
		s, _, inj := injectorHarness(t, plan, 1)
		s.RunUntil(simtime.Time(simtime.Sec(5)))
		inj.Stop()
		st := inj.Stats()
		if st.WipedGroups != 8 {
			t.Fatalf("%q: wiped %d groups, want all 8", c.spec, st.WipedGroups)
		}
		if dead := inj.rt.Instance("agg", 0).Dead(); dead != c.dead {
			t.Fatalf("%q: victim dead=%v 4s after the crash, want %v", c.spec, dead, c.dead)
		}
		accounted := st.RecoveredGroups + st.LostGroups + st.RelocatedGroups
		if c.dead && (st.RecoveredGroups != 0 || accounted != 0) {
			t.Fatalf("%q: recovery ran anyway: %+v", c.spec, st)
		}
		if !c.dead && accounted != st.WipedGroups {
			t.Fatalf("%q: recovery accounted %d of %d wiped groups", c.spec, accounted, st.WipedGroups)
		}
	}
}
