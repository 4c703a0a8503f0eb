package core

import (
	"testing"

	"drrs/internal/engine"
	"drrs/internal/scaletest"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

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
			if got := m.scaleID; got != want {
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
