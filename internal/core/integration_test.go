package core

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/scaletest"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// fig9Job builds a minimal src → agg(keyed, p=1) → sink job whose aggregator
// starts halted, so the test controls exactly where queued records and
// checkpoint burst-barriers sit when DRRS signals inject (the Fig 9 setup).
// burst records are ingested immediately at start.
func fig9Job(t *testing.T, burst int) (*simtime.Scheduler, *engine.Runtime, *engine.CollectSink) {
	t.Helper()
	sink := engine.NewCollectSink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(ctx dataflow.SourceContext) {
			for i := 0; i < burst; i++ {
				ctx.Ingest(&netsim.Record{
					Key:       uint64(i) + 1,
					EventTime: ctx.Now(),
					Size:      64,
					Value:     1.0,
				})
			}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "agg", Parallelism: 1, KeyedInput: true, MaxKeyGroups: 8,
		CostPerRecord: 100 * simtime.Microsecond,
		NewLogic: func() dataflow.Logic {
			return &engine.KeyedReduceLogic{EmitUpdates: true}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "sink", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return sink },
	})
	g.Connect("src", "agg", dataflow.ExchangeKeyed)
	g.Connect("agg", "sink", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: 9, MarkerInterval: -1})
	rt.Instance("agg", 0).Halted = true
	rt.Start()
	return s, rt, sink
}

// TestCheckpointIntegrationOutbox exercises Fig 9a: a checkpoint barrier is
// sitting in the predecessor's output cache when DRRS injects. Redirection
// must conclude at the barrier and the trigger/confirm must ride immediately
// behind it as an integrated signal.
func TestCheckpointIntegrationOutbox(t *testing.T) {
	// 160 records: 128 fill the halted aggregator's input buffer, the rest
	// wait in the output cache with room to spare; the barrier queues behind
	// them there.
	s, rt, sink := fig9Job(t, 160)
	var ckptDone, scaleDone bool
	s.After(simtime.Ms(10), func() {
		rt.TriggerCheckpoint(func(int64) { ckptDone = true })
	})
	mech := New(FullDRRS())
	s.After(simtime.Ms(12), func() {
		plan := scaling.UniformPlan(rt.Graph, "agg", 2, simtime.Ms(1))
		mech.Begin(rt, plan, func() { scaleDone = true })
	})
	s.After(simtime.Ms(20), func() {
		if got := rt.Scale.Counter("drrs_ckpt_integrated_outbox"); got == 0 {
			t.Error("barrier was in the outbox at injection but the Fig 9a path did not fire")
		}
		in := rt.Instance("agg", 0)
		in.Halted = false
		in.Wake()
	})
	s.Run()
	if !ckptDone {
		t.Fatal("checkpoint never completed")
	}
	if !scaleDone {
		t.Fatal("scaling never completed")
	}
	if sink.Records != 160 {
		t.Fatalf("sink saw %d records, want 160 (loss or duplication through the integrated path)", sink.Records)
	}
	if d := sink.Duplicates(); d != 0 {
		t.Fatalf("%d duplicates", d)
	}
}

// TestCheckpointIntegrationInbox exercises Fig 9b: the checkpoint barrier is
// already in the scaling instance's input buffer when the (priority) trigger
// barrier arrives. The trigger must integrate into the checkpoint barrier
// and take effect only after the snapshot.
func TestCheckpointIntegrationInbox(t *testing.T) {
	// All 20 records and the barrier reach the halted aggregator's input
	// buffer before injection.
	s, rt, sink := fig9Job(t, 20)
	var ckptDone, scaleDone bool
	s.After(simtime.Ms(10), func() {
		rt.TriggerCheckpoint(func(int64) { ckptDone = true })
	})
	mech := New(FullDRRS())
	s.After(simtime.Ms(15), func() {
		plan := scaling.UniformPlan(rt.Graph, "agg", 2, simtime.Ms(1))
		mech.Begin(rt, plan, func() { scaleDone = true })
	})
	s.After(simtime.Ms(25), func() {
		in := rt.Instance("agg", 0)
		in.Halted = false
		in.Wake()
	})
	s.Run()
	if got := rt.Scale.Counter("drrs_ckpt_integrated_inbox"); got == 0 {
		t.Fatal("barrier was in the input buffer at trigger arrival but the Fig 9b path did not fire")
	}
	if !ckptDone {
		t.Fatal("checkpoint never completed")
	}
	if !scaleDone {
		t.Fatal("scaling never completed — the integrated trigger was lost")
	}
	if sink.Records != 20 {
		t.Fatalf("sink saw %d records, want 20", sink.Records)
	}
}

func withUpdates(wl scaletest.Workload) scaletest.Workload {
	wl.EmitUpdates = true
	return wl
}

// TestSupersession exercises the paper's concurrent-request rule under
// scripted driving: a newer scaling request on the same operator terminates
// the older one mid-migration, and the superseding plan is computed from
// actual placement so nothing the cancelled operation already moved migrates
// twice. The whole exchange goes through the lifecycle Mechanism surface
// (Begin/Progress/Cancel) — the same path the reactive controller drives.
func TestSupersession(t *testing.T) {
	wl := scaletest.DefaultWorkload(82)
	wl.Duration = simtime.Sec(5)
	g, _ := withUpdates(wl).Build()
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: wl.Seed})
	// Slow migration so the first scaling is mid-flight when superseded.
	rt.Cluster.Node("local").MigrationBandwidth = 1 << 20
	rt.Start()

	first := New(FullDRRS())
	var firstOp scaling.Operation
	var firstDone, secondDone bool
	var progressAtCancel scaling.Progress
	s.After(simtime.Sec(1), func() {
		firstOp = first.Begin(rt, scaling.UniformPlan(g, "agg", 6, simtime.Ms(20)), func() { firstDone = true })
		if ph := firstOp.Progress().Phase; ph != scaling.PhaseDeploy {
			t.Errorf("freshly begun operation reports phase %v, want deploy", ph)
		}
	})
	s.After(simtime.Sec(1)+simtime.Ms(80), func() {
		// Rapid load fluctuation: supersede 4→6 with →8. The rule is only
		// exercised if the cancellation lands mid-migration — some groups
		// moved, some not.
		progressAtCancel = firstOp.Progress()
		if !firstOp.Cancel() {
			t.Error("DRRS must honor cancellation")
		}
	})
	s.RunUntil(simtime.Time(simtime.Ms(1200)))
	// Wait for the first mechanism to drain its active subscales.
	for !first.finished && s.Step() {
	}
	if !first.finished {
		t.Fatal("cancelled mechanism never settled")
	}
	if progressAtCancel.Phase != scaling.PhaseMigrate ||
		progressAtCancel.Moved == 0 || progressAtCancel.Moved >= progressAtCancel.Total {
		t.Fatalf("cancellation did not land mid-migration: %+v (rig needs retuning)", progressAtCancel)
	}
	if pr := firstOp.Progress(); pr.Phase != scaling.PhaseDone || !pr.Cancelled {
		t.Fatalf("settled cancelled operation reports %+v", pr)
	}

	second := New(FullDRRS())
	plan2 := scaling.PlanFromPlacement(rt, "agg", 8, simtime.Ms(20))
	second.Begin(rt, plan2, func() { secondDone = true })
	s.RunUntil(simtime.Time(wl.Duration))
	rt.StopMarkers()
	s.Run()

	if !firstDone {
		t.Fatal("cancelled mechanism never reported completion")
	}
	if !secondDone {
		t.Fatal("superseding mechanism never completed")
	}
	// A group the first scaling already delivered to an instance that is
	// still its p=8 owner must not appear in the second plan (no redundant
	// migration).
	inPlan2 := map[int]bool{}
	for _, mv := range plan2.Moves {
		inPlan2[mv.KeyGroup] = true
	}
	spec := g.Operator("agg")
	for i, st := range first.kgs {
		mv := first.plan.Moves[i]
		if st.phase == landed && state.OwnerOf(spec.MaxKeyGroups, 8, mv.KeyGroup) == mv.To && inPlan2[mv.KeyGroup] {
			t.Fatalf("kg %d already at its final owner but re-planned", mv.KeyGroup)
		}
	}
	// Final placement: every key group at its p=8 contiguous owner.
	for _, in := range rt.Instances("agg") {
		for kg, g := range in.Store().Groups() {
			want := state.OwnerOf(spec.MaxKeyGroups, 8, kg)
			if want != in.Index && g.Len() > 0 {
				t.Fatalf("kg %d at %s, want instance %d", kg, in.Name(), want)
			}
		}
	}
}
