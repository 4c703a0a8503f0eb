package bench

import (
	"strings"
	"testing"

	"drrs/internal/simtime"
)

func TestTopologyByName(t *testing.T) {
	s := simtime.NewScheduler()
	for _, name := range Topologies() {
		if TopologyByName(name)(s) == nil {
			t.Fatalf("topology %s built nil", name)
		}
		s = simtime.NewScheduler() // fresh per build: node names collide
	}
	cl := TopologyByName("rack8x16")(simtime.NewScheduler())
	if got := len(cl.Racks()); got != 8 {
		t.Fatalf("rack8x16 has %d racks", got)
	}
	nodes := 0
	for _, r := range cl.Racks() {
		nodes += len(cl.RackNodes(r))
	}
	if nodes != 128 {
		t.Fatalf("rack8x16 has %d rack nodes, want 128", nodes)
	}
	if cl.PolicyName() == "" {
		t.Fatal("named topologies must install a placement policy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown topology should panic")
		}
	}()
	TopologyByName("bogus")
}

func TestClusterOverrideResolution(t *testing.T) {
	build := func(ov Overrides, rewrite func(Scenario) Scenario) (racks int, policy string) {
		sc, err := ov.Apply(TwitchScenario(1))
		if err != nil {
			t.Fatal(err)
		}
		cl := rewrite(sc).buildCluster(simtime.NewScheduler())
		return len(cl.Racks()), cl.PolicyName()
	}
	asIs := func(sc Scenario) Scenario { return sc }

	if racks, policy := build(Overrides{Topology: "rack4x4"}, asIs); racks != 4 || policy != "rack-local" {
		t.Fatalf("topology override not applied: racks=%d policy=%q", racks, policy)
	}
	if _, policy := build(Overrides{Topology: "rack4x4", Placement: "pack"}, asIs); policy != "pack" {
		t.Fatalf("placement override not applied: %q", policy)
	}
	// WithPlacement (the topology figure's columns) outranks the CLI-wide
	// placement whichever rewrite comes first: it is the later one here, and
	// Overrides.Placement only fills in where the scenario names no policy.
	spread := func(sc Scenario) Scenario { return sc.WithPlacement("spread") }
	if _, policy := build(Overrides{Topology: "rack4x4", Placement: "pack"}, spread); policy != "spread" {
		t.Fatalf("WithPlacement lost to the override: %q", policy)
	}
	sc, err := Overrides{Topology: "rack4x4", Placement: "pack"}.Apply(TwitchScenario(1).WithPlacement("spread"))
	if err != nil || sc.Placement != "spread" {
		t.Fatalf("Overrides.Placement overwrote the scenario's own policy: %q, %v", sc.Placement, err)
	}
	if racks, policy := build(Overrides{}, asIs); racks != 0 || policy != "" {
		t.Fatal("the zero Overrides changed the scenario's cluster")
	}
}

func TestWithPlacementValidatesEagerly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown placement should panic at construction, not mid-run")
		}
	}()
	TwitchScenario(1).WithPlacement("bogus")
}

// TestBigClusterDeterminism extends the bit-for-bit regression guard to the
// production-scale track: a 128-node, 256→320-instance run — rack placement,
// shared-uplink contention, and path-derived edge latencies included — must
// reproduce exactly from the same seed.
func TestBigClusterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two 128-node cluster runs")
	}
	t.Parallel()
	a := sharedRun(t, "bigcluster-128", 3, "drrs") // a golden cell
	b := ScenarioByName("bigcluster-128", 3).RunWith(drrsFactory)
	if !a.Done {
		t.Fatal("bigcluster-128 scaling never completed")
	}
	if a.Waves[0].FromParallelism != 256 || a.Waves[0].Wave.NewParallelism != 320 {
		t.Fatalf("wave program mismatch: %+v", a.Waves[0])
	}
	if a.CrossRackBytes == 0 {
		t.Fatal("a 128-node spread scale-out must cross rack uplinks")
	}
	if a.TransferredBytes < a.CrossRackBytes {
		t.Fatalf("cross-rack bytes %d exceed total moved %d", a.CrossRackBytes, a.TransferredBytes)
	}
	requireSameOutcome(t, "bigcluster-128/drrs", a, b)
}

// TestRackLocalAvoidsUplinks pins the headline topology claim: on the
// rack-skew scenario the rack-local scale-out moves zero bytes across rack
// uplinks, while the same run under spread placement pushes a large share of
// the migrated state through them.
func TestRackLocalAvoidsUplinks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two rack-cluster runs")
	}
	t.Parallel()
	outs, err := shared.outcomes([]cell{
		{Scenario: "rack-skew", Seed: 5, Mechanism: "drrs", Placement: "rack-local"},
		{Scenario: "rack-skew", Seed: 5, Mechanism: "drrs", Placement: "spread"},
	})
	if err != nil {
		t.Fatal(err)
	}
	local, spread := outs[0], outs[1]
	if !local.Done || !spread.Done {
		t.Fatal("scaling never completed")
	}
	if local.CrossRackBytes != 0 {
		t.Fatalf("rack-local scale-out crossed uplinks: %d bytes", local.CrossRackBytes)
	}
	if spread.CrossRackBytes == 0 {
		t.Fatal("spread scale-out should cross uplinks")
	}
	if spread.CrossRackBytes*2 < spread.TransferredBytes {
		t.Fatalf("spread should push most state through uplinks: %d of %d",
			spread.CrossRackBytes, spread.TransferredBytes)
	}
}

func TestTopologyFigureRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the rack-skew comparison grid")
	}
	res, err := shared.TopologyFigure("rack-skew", []string{"drrs"}, []int64{5}) // TestRackLocalAvoidsUplinks' cells
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "rack-local") || !strings.Contains(res.Text, "spread") {
		t.Fatalf("figure missing placement columns:\n%s", res.Text)
	}
	if _, ok := res.Rows["drrs@rack-local"]; !ok {
		t.Fatalf("figure rows missing drrs@rack-local: %v", res.Rows)
	}
	if _, err := (Harness{}).TopologyFigure("rack-skew", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "needs at least one seed") {
		t.Fatalf("TopologyFigure with an empty seed list: err = %v, want a needs-a-seed error", err)
	}
}
