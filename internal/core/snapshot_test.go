package core

import (
	"testing"

	"drrs/internal/engine"
	"drrs/internal/scaletest"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

func TestSnapshotBeforeStartIsZero(t *testing.T) {
	m := New(FullDRRS())
	if snap := m.Snapshot(); snap.ScaleID != 0 || len(snap.Subscales) != 0 {
		t.Fatalf("unstarted snapshot should be zero, got %+v", snap)
	}
}

func TestSnapshotMidScaling(t *testing.T) {
	wl := scaletestConfig(91)
	g, _ := wl.Build()
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: wl.Seed})
	rt.Cluster.Node("local").MigrationBandwidth = 1 << 20 // slow: catch it mid-flight
	rt.Start()

	m := New(FullDRRS())
	var plan scaling.Plan
	s.After(simtime.Sec(1), func() {
		plan = scaling.UniformPlan(g, "agg", 6, simtime.Ms(20))
		m.Begin(rt, plan, nil)
	})
	s.RunUntil(simtime.Time(simtime.Ms(1300)))

	snap := m.Snapshot()
	if snap.Operator != "agg" || snap.NewParallelism != 6 {
		t.Fatalf("snapshot header %+v", snap)
	}
	if snap.Finished {
		t.Fatal("slow migration should still be in flight at 1.3s")
	}
	var total, migrated int
	for _, sub := range snap.Subscales {
		total += len(sub.KeyGroups)
		migrated += len(sub.MigratedGroups)
	}
	if total != len(plan.Moves) {
		t.Fatalf("snapshot covers %d groups, plan has %d", total, len(plan.Moves))
	}
	remaining := snap.RemainingAfterRecovery()
	if len(remaining)+migrated != total {
		t.Fatalf("remaining %d + migrated %d != total %d", len(remaining), migrated, total)
	}
	if len(remaining) == 0 {
		t.Fatal("nothing remaining mid-flight — the snapshot caught a finished run; slow the cluster down")
	}

	// Run to completion: the final snapshot records everything migrated.
	s.RunUntil(simtime.Time(wl.Duration))
	rt.StopMarkers()
	s.Run()
	final := m.Snapshot()
	if !final.Finished {
		t.Fatal("scaling never finished")
	}
	if got := final.RemainingAfterRecovery(); len(got) != 0 {
		t.Fatalf("finished snapshot still reports %d remaining", len(got))
	}
	for _, sub := range final.Subscales {
		if !sub.Completed || sub.ConfirmsOutstanding != 0 {
			t.Fatalf("subscale %d not settled in final snapshot: %+v", sub.ID, sub)
		}
	}
}

// TestScaleIDIsPerRuntime: an operation's id — and with it every barrier and
// signal name — depends on how many operations its own run has begun, not on
// how many the process has.
func TestScaleIDIsPerRuntime(t *testing.T) {
	for run := 0; run < 2; run++ {
		wl := scaletestConfig(92)
		g, _ := wl.Build()
		rt := engine.New(simtime.NewScheduler(), g, nil, engine.Config{Seed: wl.Seed})
		for want := int64(1); want <= 2; want++ {
			m := New(FullDRRS())
			m.Begin(rt, scaling.UniformPlan(g, "agg", 6, simtime.Ms(20)), nil)
			if got := m.Snapshot().ScaleID; got != want {
				t.Fatalf("runtime %d, operation %d: ScaleID %d", run, want, got)
			}
		}
	}
}

func scaletestConfig(seed int64) scaletest.Workload {
	wl := scaletest.DefaultWorkload(seed)
	wl.StateBytesPerKey = 2048
	wl.Duration = simtime.Sec(4)
	wl.EmitUpdates = true
	return wl
}
