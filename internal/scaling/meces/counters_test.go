package meces_test

import (
	"testing"

	"drrs/internal/bench"
	"drrs/internal/scaling"
	"drrs/internal/scaling/meces"
)

// TestCountersMatchFullScan checks the pusher's incremental counters against
// a full recount after every transfer callback, on a run whose partition
// drives the transfer failure path.
func TestCountersMatchFullScan(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full faulted run")
	}
	var checks int
	o := bench.ScenarioByName("flaky-uplink", 1).RunWith(func() scaling.Mechanism {
		m := &meces.Mechanism{}
		m.OnTransferSettled(func() {
			checks++
			a, i, f := m.Counters()
			wa, wi, wf := m.Recount()
			if a != wa || i != wi || f != wf {
				t.Fatalf("check %d: counters away=%d idle-away=%d in-flight=%d, full scan %d/%d/%d",
					checks, a, i, f, wa, wi, wf)
			}
		})
		return m
	})
	var failed int64
	for _, w := range o.Waves {
		failed += w.Scale.Counter("meces_fails")
	}
	if failed == 0 {
		t.Fatal("no transfer failed: the failure path went unchecked")
	}
	if checks == 0 {
		t.Fatal("no transfer callback ran")
	}
	t.Logf("%d callbacks checked, %d of them failures", checks, failed)
}
