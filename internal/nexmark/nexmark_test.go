package nexmark

import (
	"testing"

	"drrs/internal/core"
	"drrs/internal/engine"
	"drrs/internal/scaletest"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// runQ7 runs Q7 for dur, under mech from 1 s on when it is not nil, and
// returns the runtime, the sink and the per-key sums of what reached it.
func runQ7(t *testing.T, mech scaling.Mechanism, dur simtime.Duration) (*engine.Runtime, *engine.CollectSink, map[uint64]float64) {
	t.Helper()
	g, sink := BuildQ7(Q7Config{
		RatePerSec: 1000, SourceParallelism: 2, WindowParallelism: 4,
		MaxKeyGroups: 32, Auctions: 500,
		WindowSize: simtime.Ms(500), Slide: simtime.Ms(100),
		Duration: dur, Seed: 5,
	})
	byKey := scaletest.SumByKey(g, "sink")
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 5})
	rt.Start()
	if mech != nil {
		s.After(simtime.Sec(1), func() {
			mech.Begin(rt, scaling.UniformPlan(g, "winmax", 6, simtime.Ms(20)), nil)
		})
	}
	s.RunUntil(simtime.Time(dur))
	rt.StopMarkers()
	s.Run()
	return rt, sink, byKey
}

func TestQ7ProducesWindowOutput(t *testing.T) {
	rt, sink, _ := runQ7(t, nil, simtime.Sec(3))
	if sink.Records == 0 {
		t.Fatal("Q7 produced no window aggregates")
	}
	// Window state accumulates on the window operator.
	if rt.TotalStateBytes("winmax") == 0 {
		t.Fatal("no window state accumulated")
	}
	// All window instances participate (keyed spread over hot auctions).
	for _, in := range rt.Instances("winmax") {
		if in.Processed == 0 {
			t.Fatalf("window instance %s idle", in.Name())
		}
	}
}

func TestQ7WindowMaxSemantics(t *testing.T) {
	// Every emitted aggregate must be a max over positive bid prices.
	_, _, byKey := runQ7(t, nil, simtime.Sec(2))
	for k, v := range byKey {
		if v <= 0 {
			t.Fatalf("auction %d window max %v not positive", k, v)
		}
	}
}

func TestQ7ScalesUnderDRRS(t *testing.T) {
	rt, sink, _ := runQ7(t, core.New(core.FullDRRS()), simtime.Sec(4))
	if !rt.Scale.Ended() {
		t.Fatal("scaling never completed")
	}
	if sink.Records == 0 {
		t.Fatal("no output after scaling")
	}
	// Window state for migrated groups lives at new instances.
	var newStateful bool
	for idx := 4; idx < 6; idx++ {
		if rt.Instance("winmax", idx).Store().Len() > 0 {
			newStateful = true
		}
	}
	if !newStateful {
		t.Fatal("no state migrated to new window instances")
	}
}

func TestQ8JoinEmitsMatches(t *testing.T) {
	g, sink := BuildQ8(Q8Config{
		PersonsPerSec: 300, AuctionsPerSec: 400, JoinParallelism: 4,
		MaxKeyGroups: 32, People: 200,
		WindowSize: simtime.Sec(1), Slide: simtime.Ms(200),
		Duration: simtime.Sec(3), Seed: 6,
	})
	byKey := scaletest.SumByKey(g, "sink")
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 6})
	rt.Start()
	s.RunUntil(simtime.Time(simtime.Sec(3)))
	rt.StopMarkers()
	s.Run()
	if sink.Records == 0 {
		t.Fatal("Q8 join produced no matches")
	}
	if rt.TotalStateBytes("join") == 0 {
		t.Fatal("no join state accumulated")
	}
	// Matches only for keys present on both sides: every emitted value is a
	// positive pair-count.
	for k, v := range byKey {
		if v <= 0 {
			t.Fatalf("person %d match count %v", k, v)
		}
	}
}

func TestQ8ScalesUnderDRRS(t *testing.T) {
	g, sink := BuildQ8(Q8Config{
		PersonsPerSec: 300, AuctionsPerSec: 400, JoinParallelism: 4,
		MaxKeyGroups: 32, People: 200,
		WindowSize: simtime.Sec(1), Slide: simtime.Ms(200),
		Duration: simtime.Sec(4), Seed: 7,
	})
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 7})
	rt.Start()
	var done bool
	s.After(simtime.Sec(1), func() {
		core.New(core.FullDRRS()).Begin(rt, scaling.UniformPlan(g, "join", 6, simtime.Ms(20)), func() { done = true })
	})
	s.RunUntil(simtime.Time(simtime.Sec(4)))
	rt.StopMarkers()
	s.Run()
	if !done {
		t.Fatal("Q8 scaling never completed")
	}
	if sink.Records == 0 {
		t.Fatal("no join output after scaling")
	}
}

func TestQ7DefaultsFilled(t *testing.T) {
	cfg := Q7Config{}
	cfg.fillDefaults()
	if cfg.RatePerSec == 0 || cfg.MaxKeyGroups == 0 || cfg.WindowSize == 0 {
		t.Fatal("defaults not applied")
	}
	cfg8 := Q8Config{}
	cfg8.fillDefaults()
	if cfg8.PersonsPerSec == 0 || cfg8.WindowSize == 0 {
		t.Fatal("Q8 defaults not applied")
	}
}
