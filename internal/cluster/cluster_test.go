package cluster

import (
	"errors"
	"testing"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

func ep(op string, i int) netsim.Endpoint { return netsim.Endpoint{Op: op, Index: i} }

func TestDefaultNode(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	if c.NodeOf(ep("x", 0)).Name != "local" {
		t.Fatal("unplaced instance should land on the default node")
	}
	if c.SpeedOf(ep("x", 0)) != 1.0 {
		t.Fatal("default speed should be 1.0")
	}
}

func TestPlacement(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("n1", 2.0, 1000)
	c.Place(ep("op", 3), "n1")
	if c.NodeOf(ep("op", 3)).Name != "n1" {
		t.Fatal("placement lost")
	}
	if c.SpeedOf(ep("op", 3)) != 2.0 {
		t.Fatal("speed factor lost")
	}
}

func TestPlaceRoundRobin(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("n1", 1, 0)
	c.AddNode("n2", 1, 0)
	c.PlaceRoundRobin("op", 6)
	counts := map[string]int{}
	for i := 0; i < 6; i++ {
		counts[c.NodeOf(ep("op", i)).Name]++
	}
	if counts["local"] != 2 || counts["n1"] != 2 || counts["n2"] != 2 {
		t.Fatalf("uneven placement %v", counts)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddNode("local", 1, 0)
}

func TestPlaceUnknownNodePanics(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Place(ep("op", 0), "ghost")
}

func TestTransferBandwidthSerialization(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	n := c.AddNode("src", 1, 1000) // 1000 B/s
	c.AddNode("dst", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")

	var done []simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 500, func() { done = append(done, s.Now()) })
	c.Transfer(ep("a", 0), ep("b", 0), 500, func() { done = append(done, s.Now()) })
	s.Run()
	if len(done) != 2 {
		t.Fatalf("completions %d", len(done))
	}
	lat := transferLatency
	if done[0] != simtime.Time(simtime.Ms(500)).Add(lat) {
		t.Fatalf("first done at %v", done[0])
	}
	if done[1] != simtime.Time(simtime.Sec(1)).Add(lat) {
		t.Fatalf("second done at %v (should serialize on src bandwidth)", done[1])
	}
	if n.TransferredBytes != 1000 {
		t.Fatalf("transferred %d", n.TransferredBytes)
	}
}

func TestTransferSameNodeSkipsLatency(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("n", 1, 1000)
	c.Place(ep("a", 0), "n")
	c.Place(ep("b", 0), "n")
	var at simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 1000, func() { at = s.Now() })
	s.Run()
	if at != simtime.Time(simtime.Sec(1)) {
		t.Fatalf("same-node transfer at %v", at)
	}
}

func TestTransferInfiniteBandwidth(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	var at simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 1<<30, func() { at = s.Now() })
	s.Run()
	if at != 0 {
		t.Fatalf("infinite bandwidth same-node transfer should be instant, got %v", at)
	}
}

// TestTransferSameSourceSerializesAcrossDestinations pins the queueing model
// the subscale scheduler leans on: the bandwidth pool belongs to the source
// node, so transfers to *different* destinations still serialize.
func TestTransferSameSourceSerializesAcrossDestinations(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("src", 1, 1000)
	c.AddNode("d1", 1, 1000)
	c.AddNode("d2", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "d1")
	c.Place(ep("b", 1), "d2")
	var done []simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 1000, func() { done = append(done, s.Now()) })
	c.Transfer(ep("a", 0), ep("b", 1), 1000, func() { done = append(done, s.Now()) })
	s.Run()
	lat := transferLatency
	if done[0] != simtime.Time(simtime.Sec(1)).Add(lat) {
		t.Fatalf("first transfer done at %v", done[0])
	}
	if done[1] != simtime.Time(simtime.Sec(2)).Add(lat) {
		t.Fatalf("second transfer to a different destination should still queue on src: %v", done[1])
	}
}

// TestTransferIdleGapDoesNotCarryOver guards busyUntil bookkeeping: after the
// source drains and sits idle, the next transfer starts from now, not from
// the stale busyUntil.
func TestTransferIdleGapDoesNotCarryOver(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("src", 1, 1000)
	c.AddNode("dst", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")
	var done []simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 500, func() { done = append(done, s.Now()) })
	s.Run()
	// Launch the second transfer 10 s later, long after the first finished.
	s.At(simtime.Time(simtime.Sec(10)), func() {
		c.Transfer(ep("a", 0), ep("b", 0), 500, func() { done = append(done, s.Now()) })
	})
	s.Run()
	if len(done) != 2 {
		t.Fatalf("completions %d", len(done))
	}
	want := simtime.Time(simtime.Sec(10.5)).Add(transferLatency)
	if done[1] != want {
		t.Fatalf("post-idle transfer done at %v, want %v", done[1], want)
	}
}

// TestTransferZeroBytes covers empty key groups: the transfer must still
// round-trip (latency only) and complete, or migrations of empty groups
// would hang the scaling protocol.
func TestTransferZeroBytes(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	n := c.AddNode("src", 1, 1000)
	c.AddNode("dst", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")
	fired := false
	c.Transfer(ep("a", 0), ep("b", 0), 0, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("zero-byte transfer never completed")
	}
	if s.Now() != simtime.Time(transferLatency) {
		t.Fatalf("zero-byte transfer took %v, want latency only", s.Now())
	}
	if n.TransferredBytes != 0 {
		t.Fatalf("transferred %d bytes", n.TransferredBytes)
	}
}

// TestTransferredBytesAccountsPerSourceNode checks the outgoing-traffic
// counters stay with the sending node.
func TestTransferredBytesAccountsPerSourceNode(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	n1 := c.AddNode("n1", 1, 0)
	n2 := c.AddNode("n2", 1, 0)
	c.Place(ep("a", 0), "n1")
	c.Place(ep("a", 1), "n2")
	c.Place(ep("b", 0), "n2")
	c.Transfer(ep("a", 0), ep("b", 0), 300, func() {})
	c.Transfer(ep("a", 1), ep("b", 0), 700, func() {}) // n2-internal
	c.Transfer(ep("a", 0), ep("a", 1), 200, func() {})
	s.Run()
	if n1.TransferredBytes != 500 {
		t.Fatalf("n1 transferred %d, want 500", n1.TransferredBytes)
	}
	if n2.TransferredBytes != 700 {
		t.Fatalf("n2 transferred %d, want 700", n2.TransferredBytes)
	}
}

// TestTransferToDeadNodeFails pins the unhealthy-cluster semantics: a
// transfer whose destination node is dead must fail through the error
// callback at the instant the bytes arrive (bandwidth and latency are still
// paid — the failure is detected at delivery, not for free at launch).
func TestTransferToDeadNodeFails(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("src", 1, 1000)
	c.AddNode("dst", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")
	c.MarkDead("dst")
	var failedAt simtime.Time
	var failErr error
	done := false
	c.TransferChecked(ep("a", 0), ep("b", 0), 500, func() { done = true }, func(err error) {
		failedAt = s.Now()
		failErr = err
	})
	s.Run()
	if done {
		t.Fatal("transfer to a dead node must not complete")
	}
	if failErr == nil || !errors.Is(failErr, ErrInstanceDead) {
		t.Fatalf("want ErrInstanceDead, got %v", failErr)
	}
	want := simtime.Time(simtime.Ms(500)).Add(transferLatency)
	if failedAt != want {
		t.Fatalf("failure detected at %v, want delivery time %v", failedAt, want)
	}
}

// TestTransferFromDeadNodeFailsImmediately: a dead source cannot even start
// sending, so the failure fires at launch time without consuming bandwidth.
func TestTransferFromDeadNodeFailsImmediately(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	n := c.AddNode("src", 1, 1000)
	c.AddNode("dst", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")
	c.MarkDead("src")
	var failErr error
	c.TransferChecked(ep("a", 0), ep("b", 0), 500, func() { t.Fatal("completed") }, func(err error) {
		failErr = err
		if s.Now() != 0 {
			t.Fatalf("dead-source failure at %v, want launch time", s.Now())
		}
	})
	s.Run()
	if failErr == nil || !errors.Is(failErr, ErrInstanceDead) {
		t.Fatalf("want ErrInstanceDead, got %v", failErr)
	}
	if n.TransferredBytes != 0 {
		t.Fatalf("dead source accounted %d transferred bytes", n.TransferredBytes)
	}
}

// TestTransferSurvivesReplacementInFlight: the destination is checked when
// the bytes arrive, so re-placing the destination instance onto a healthy
// node while the transfer is in flight lets it complete.
func TestTransferSurvivesReplacementInFlight(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("src", 1, 1000)
	c.AddNode("doomed", 1, 1000)
	c.AddNode("safe", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "doomed")
	done := false
	c.TransferChecked(ep("a", 0), ep("b", 0), 500, func() { done = true }, func(err error) {
		t.Fatalf("transfer failed despite re-placement: %v", err)
	})
	// Mid-flight: the destination node dies, but the instance is re-placed
	// before the bytes arrive.
	s.At(simtime.Time(simtime.Ms(100)), func() {
		c.MarkDead("doomed")
		c.Place(ep("b", 0), "safe")
	})
	s.Run()
	if !done {
		t.Fatal("transfer should complete at the re-placed destination")
	}
}

// TestTransferAcrossDownRackFails: partitioned uplinks fail cross-rack
// transfers without occupying the uplink pool.
func TestTransferAcrossDownRackFails(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	for _, r := range []string{"r0", "r1"} {
		c.AddRack(r, 1000, simtime.Ms(1))
		c.AddNodeOnRack(r, r+"n", 1, 1000)
	}
	c.Place(ep("a", 0), "r0n")
	c.Place(ep("b", 0), "r1n")
	c.Rack("r0").Down = true
	var failErr error
	c.TransferChecked(ep("a", 0), ep("b", 0), 500, func() { t.Fatal("completed") }, func(err error) {
		failErr = err
	})
	s.Run()
	if failErr == nil || !errors.Is(failErr, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", failErr)
	}
	if c.Rack("r0").OutBytes != 0 {
		t.Fatalf("partitioned transfer accounted %d uplink bytes", c.Rack("r0").OutBytes)
	}
	// Healed: the same transfer goes through.
	c.Rack("r0").Down = false
	done := false
	c.TransferChecked(ep("a", 0), ep("b", 0), 500, func() { done = true }, nil)
	s.Run()
	if !done {
		t.Fatal("healed uplink should carry the transfer")
	}
}

func TestTransfersFromDifferentNodesDontContend(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("n1", 1, 1000)
	c.AddNode("n2", 1, 1000)
	c.Place(ep("a", 0), "n1")
	c.Place(ep("b", 0), "n2")
	c.Place(ep("c", 0), "n1") // same node as a? no — to test independence use dst anywhere
	var done []simtime.Time
	c.Transfer(ep("a", 0), ep("c", 0), 1000, func() { done = append(done, s.Now()) })
	c.Transfer(ep("b", 0), ep("c", 0), 1000, func() { done = append(done, s.Now()) })
	s.Run()
	// Both take 1s of their own node's bandwidth; neither waits for the other.
	for _, d := range done {
		if d > simtime.Time(simtime.Sec(1)).Add(transferLatency) {
			t.Fatalf("independent transfers contended: %v", done)
		}
	}
}
