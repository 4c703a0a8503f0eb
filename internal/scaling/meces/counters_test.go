package meces_test

import (
	"testing"

	"drrs/internal/bench"
	"drrs/internal/scaling"
	"drrs/internal/scaling/meces"
	"drrs/internal/state"
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

// TestChunkReturnedOnce checks, after every transfer callback of a run whose
// partition drives the failure path, that the transfer's chunk went back to
// the spare list exactly once and empty. A chunk returned twice would be
// handed to two transfers at once, and the second extraction would overwrite
// state the first still has on the wire.
func TestChunkReturnedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full faulted run")
	}
	var checks int
	var failed int64
	o := bench.ScenarioByName("flaky-uplink", 1).RunWith(func() scaling.Mechanism {
		m := &meces.Mechanism{}
		m.OnChunkReturned(func(c *state.Chunk, spare []*state.Chunk) {
			checks++
			if n := len(spare); n == 0 || spare[n-1] != c {
				t.Fatalf("check %d: the transfer's chunk is not on top of the %d spare chunks", checks, n)
			}
			if c.Len() != 0 || c.Bytes != 0 {
				t.Fatalf("check %d: the returned chunk still holds %d keys in %d bytes", checks, c.Len(), c.Bytes)
			}
			for i, a := range spare {
				for _, b := range spare[i+1:] {
					if a == b {
						t.Fatalf("check %d: a chunk sits twice among the %d spare chunks", checks, len(spare))
					}
				}
			}
		})
		return m
	})
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
