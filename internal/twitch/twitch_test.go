package twitch

import (
	"testing"

	"drrs/internal/core"
	"drrs/internal/engine"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

func smallConfig(seed int64, dur simtime.Duration) Config {
	return Config{
		RatePerSec: 1500, Users: 800, Streamers: 100,
		SourceParallelism: 2, LoyaltyParallelism: 4, SessionParallelism: 2,
		MaxKeyGroups: 32, Duration: dur, Seed: seed,
	}
}

func TestPipelineHasSevenOperators(t *testing.T) {
	g, _ := Build(smallConfig(1, simtime.Sec(1)))
	if got := len(g.Topological()); got != 7 {
		t.Fatalf("pipeline has %d operators, paper says 7", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineComputesLoyalty(t *testing.T) {
	g, sink := Build(smallConfig(2, simtime.Sec(3)))
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 2})
	rt.Start()
	s.RunUntil(simtime.Time(simtime.Sec(3)))
	rt.StopMarkers()
	s.Run()
	if sink.Records == 0 {
		t.Fatal("no loyalty updates reached the sink")
	}
	// Loyalty state accumulates naturally through continuous processing.
	if rt.TotalStateBytes(ScalingOperator) == 0 {
		t.Fatal("no loyalty state accumulated")
	}
	if rt.TotalStateBytes("sessions") == 0 {
		t.Fatal("no session state accumulated")
	}
}

func TestStreamerSkewConcentratesLoad(t *testing.T) {
	// The synthetic trace must preserve the dataset's skew: session state
	// per user varies and popular entities dominate. Verify user activity
	// skew via per-instance processed spread on sessions.
	g, _ := Build(smallConfig(3, simtime.Sec(2)))
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 3})
	rt.Start()
	s.RunUntil(simtime.Time(simtime.Sec(2)))
	rt.StopMarkers()
	s.Run()
	var minP, maxP uint64 = 1 << 62, 0
	for _, in := range rt.Instances("sessions") {
		if in.Processed < minP {
			minP = in.Processed
		}
		if in.Processed > maxP {
			maxP = in.Processed
		}
	}
	if maxP == 0 {
		t.Fatal("sessions processed nothing")
	}
	// Zipf user skew should create visible imbalance but not starvation.
	if minP == 0 {
		t.Fatal("a session instance starved entirely")
	}
}

func TestScalesUnderDRRS(t *testing.T) {
	g, sink := Build(smallConfig(4, simtime.Sec(4)))
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 4})
	rt.Start()
	var done bool
	s.After(simtime.Sec(1), func() {
		core.New(core.FullDRRS()).Begin(rt,
			scaling.UniformPlan(g, ScalingOperator, 6, simtime.Ms(20)),
			func() { done = true })
	})
	s.RunUntil(simtime.Time(simtime.Sec(4)))
	rt.StopMarkers()
	s.Run()
	if !done {
		t.Fatal("scaling never completed")
	}
	if sink.Records == 0 {
		t.Fatal("no output after scaling")
	}
	for idx := 4; idx < 6; idx++ {
		if rt.Instance(ScalingOperator, idx).Processed == 0 {
			t.Fatalf("new loyalty instance %d idle after scaling", idx)
		}
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() int {
		g, sink := Build(smallConfig(9, simtime.Sec(2)))
		s := simtime.NewScheduler()
		rt := engine.New(s, g, nil, engine.Config{Seed: 9})
		rt.Start()
		s.RunUntil(simtime.Time(simtime.Sec(2)))
		rt.StopMarkers()
		s.Run()
		return sink.Records
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("trace not deterministic: %d vs %d", a, b)
	}
}
