package cluster

import (
	"testing"

	"drrs/internal/simtime"
)

// rackPair builds two racks with one node each: src on r0, dst on r1.
// Node bandwidth 1000 B/s, uplink 500 B/s, uplink latency 2 ms per hop.
func rackPair(s *simtime.Scheduler) *Cluster {
	c := New(s)
	c.AddRack("r0", 500, simtime.Ms(2))
	c.AddRack("r1", 500, simtime.Ms(2))
	c.AddNodeOnRack("r0", "src", 1, 1000)
	c.AddNodeOnRack("r1", "dst", 1, 1000)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")
	return c
}

func TestTransferCrossRackPaysUplink(t *testing.T) {
	s := simtime.NewScheduler()
	c := rackPair(s)
	var at simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 500, func() { at = s.Now() })
	s.Run()
	// 0.5 s on the node NIC, then 1 s store-and-forward on the 500 B/s
	// uplink, then base latency + 2×2 ms uplink latency.
	want := simtime.Time(simtime.Sec(1.5)).Add(transferLatency + simtime.Ms(4))
	if at != want {
		t.Fatalf("cross-rack transfer done at %v, want %v", at, want)
	}
	if c.Rack("r0").OutBytes != 500 || c.Rack("r1").InBytes != 500 {
		t.Fatalf("uplink accounting out=%d in=%d", c.Rack("r0").OutBytes, c.Rack("r1").InBytes)
	}
}

func TestTransferSameRackSkipsUplink(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddRack("r0", 500, simtime.Ms(2))
	c.AddNodeOnRack("r0", "n1", 1, 1000)
	c.AddNodeOnRack("r0", "n2", 1, 1000)
	c.Place(ep("a", 0), "n1")
	c.Place(ep("b", 0), "n2")
	var at simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 1000, func() { at = s.Now() })
	s.Run()
	if want := simtime.Time(simtime.Sec(1)).Add(transferLatency); at != want {
		t.Fatalf("same-rack transfer done at %v, want %v", at, want)
	}
	if c.Rack("r0").OutBytes != 0 || c.CrossRackBytes() != 0 {
		t.Fatal("same-rack transfer must not touch the uplink")
	}
}

// TestUplinkSharedAcrossRackNodes pins the rack model's point: transfers from
// *different* nodes of one rack still serialize on the shared uplink.
func TestUplinkSharedAcrossRackNodes(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddRack("r0", 1000, 0)
	c.AddRack("r1", 1000, 0)
	c.AddNodeOnRack("r0", "n1", 1, 0) // infinite NICs: only the uplink gates
	c.AddNodeOnRack("r0", "n2", 1, 0)
	c.AddNodeOnRack("r1", "d", 1, 0)
	c.Place(ep("a", 0), "n1")
	c.Place(ep("a", 1), "n2")
	c.Place(ep("b", 0), "d")
	var done []simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 1000, func() { done = append(done, s.Now()) })
	c.Transfer(ep("a", 1), ep("b", 0), 1000, func() { done = append(done, s.Now()) })
	s.Run()
	lat := transferLatency
	if done[0] != simtime.Time(simtime.Sec(1)).Add(lat) {
		t.Fatalf("first uplink transfer done at %v", done[0])
	}
	if done[1] != simtime.Time(simtime.Sec(2)).Add(lat) {
		t.Fatalf("second transfer from a sibling node should queue on the shared uplink: %v", done[1])
	}
}

// TestUplinkIdleGapDoesNotCarryOver extends the idle-gap guard to rack
// uplinks: after the uplink drains, the next transfer starts from now.
func TestUplinkIdleGapDoesNotCarryOver(t *testing.T) {
	s := simtime.NewScheduler()
	c := rackPair(s)
	var done []simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 500, func() { done = append(done, s.Now()) })
	s.Run()
	s.At(simtime.Time(simtime.Sec(10)), func() {
		c.Transfer(ep("a", 0), ep("b", 0), 500, func() { done = append(done, s.Now()) })
	})
	s.Run()
	want := simtime.Time(simtime.Sec(11.5)).Add(transferLatency + simtime.Ms(4))
	if len(done) != 2 || done[1] != want {
		t.Fatalf("post-idle uplink transfer done at %v, want %v", done[1], want)
	}
}

// TestInfiniteBandwidthSkipsQueueing is the PR-3 bugfix regression: a pool
// whose bandwidth is raised to infinite mid-run must neither inherit the
// stale busyUntil horizon nor advance it.
func TestInfiniteBandwidthSkipsQueueing(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	n := c.AddNode("src", 1, 100) // slow: 10 s for 1000 B
	c.AddNode("dst", 1, 0)
	c.Place(ep("a", 0), "src")
	c.Place(ep("b", 0), "dst")
	c.Transfer(ep("a", 0), ep("b", 0), 1000, func() {}) // busy until t=10s
	var at simtime.Time
	s.At(simtime.Time(simtime.Sec(1)), func() {
		n.MigrationBandwidth = 0 // reconfigured to infinite
		c.Transfer(ep("a", 0), ep("b", 0), 1<<20, func() { at = s.Now() })
	})
	s.Run()
	if want := simtime.Time(simtime.Sec(1)).Add(transferLatency); at != want {
		t.Fatalf("infinite-bandwidth transfer queued behind stale busyUntil: done %v, want %v", at, want)
	}
	if n.busyUntil != simtime.Time(simtime.Sec(10)) {
		t.Fatalf("infinite transfer advanced busyUntil to %v", n.busyUntil)
	}
}

// TestZeroByteCrossRack covers empty key groups on the topology path: the
// transfer completes after latency only and leaves every byte counter alone.
func TestZeroByteCrossRack(t *testing.T) {
	s := simtime.NewScheduler()
	c := rackPair(s)
	var at simtime.Time
	c.Transfer(ep("a", 0), ep("b", 0), 0, func() { at = s.Now() })
	s.Run()
	if want := simtime.Time(transferLatency + simtime.Ms(4)); at != want {
		t.Fatalf("zero-byte cross-rack transfer done at %v, want %v", at, want)
	}
	if c.CrossRackBytes() != 0 || c.Node("src").TransferredBytes != 0 {
		t.Fatal("zero-byte transfer must not count bytes")
	}
}

func TestLinkLatencyFollowsPath(t *testing.T) {
	s := simtime.NewScheduler()
	c := rackPair(s)
	c.AddNodeOnRack("r0", "n2", 1, 0)
	c.Place(ep("x", 0), "n2")
	base := simtime.Ms(0.5)
	if got := c.LinkLatency(ep("a", 0), ep("a", 0), base); got != base {
		t.Fatalf("same-node link latency %v", got)
	}
	if got := c.LinkLatency(ep("a", 0), ep("x", 0), base); got != base {
		t.Fatalf("same-rack link latency %v", got)
	}
	if got := c.LinkLatency(ep("a", 0), ep("b", 0), base); got != base+simtime.Ms(4) {
		t.Fatalf("cross-rack link latency %v, want base+4ms", got)
	}
}

// TestUplinkByteConservation checks per-transfer accounting balances: every
// byte leaving a rack arrives at exactly one other rack.
func TestUplinkByteConservation(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	for _, r := range []string{"r0", "r1", "r2"} {
		c.AddRack(r, 1000, simtime.Ms(1))
		c.AddNodeOnRack(r, r+"n", 1, 1000)
	}
	c.Place(ep("a", 0), "r0n")
	c.Place(ep("a", 1), "r1n")
	c.Place(ep("a", 2), "r2n")
	c.Transfer(ep("a", 0), ep("a", 1), 300, func() {})
	c.Transfer(ep("a", 1), ep("a", 2), 500, func() {})
	c.Transfer(ep("a", 2), ep("a", 2), 700, func() {}) // same node: no uplink
	s.Run()
	var in int64
	for _, r := range c.Racks() {
		in += c.Rack(r).InBytes
	}
	if out := c.CrossRackBytes(); out != 800 || in != 800 {
		t.Fatalf("uplink bytes out=%d in=%d, want 800/800", out, in)
	}
	if c.TransferredBytes() != 1500 {
		t.Fatalf("node bytes %d, want 1500", c.TransferredBytes())
	}
}

func TestDuplicateRackPanics(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddRack("r0", 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddRack("r0", 0, 0)
}

func TestAddNodeOnUnknownRackPanics(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddNodeOnRack("ghost", "n", 1, 0)
}
