package meces

import (
	"testing"

	"drrs/internal/scaletest"
	"drrs/internal/simtime"
)

func TestExactlyOnce(t *testing.T) {
	base := scaletest.Run{Workload: scaletest.DefaultWorkload(41)}.Execute()
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(41),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
	}.Execute()
	if !scaled.Done {
		t.Fatal("scaling never completed")
	}
	if msg := scaletest.CheckExactlyOnce(base, scaled); msg != "" {
		t.Fatal(msg)
	}
	if msg := scaletest.CheckPlacement(scaled); msg != "" {
		t.Fatal(msg)
	}
	if msg := scaletest.CheckParticipation(scaled); msg != "" {
		t.Fatal(msg)
	}
}

func TestFetchOnDemandHappens(t *testing.T) {
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(42),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		Cluster:        scaletest.SlowMigrationCluster(8 << 20),
	}.Execute()
	if !scaled.Done {
		t.Fatal("scaling never completed")
	}
	m := scaled.RT.Scale
	if m.Counter("meces_demand_fetches") == 0 {
		t.Fatal("no on-demand fetches happened — the mechanism degenerated to pure background migration")
	}
	if m.Counter("meces_transfers") == 0 {
		t.Fatal("no transfers recorded")
	}
}

func TestBackAndForthUnderStragglers(t *testing.T) {
	// With a busy pipeline (records in flight at routing-flip time), the old
	// instances keep seeing records for moved groups and must fetch some
	// sub-units back.
	wl := scaletest.DefaultWorkload(43)
	// Run the aggregator near saturation so channels are deep at flip time:
	// 2 sources × 9000/s over 4 instances at ~200 µs/record ≈ 0.9 utilization.
	wl.RatePerSec = 9000
	wl.CostPerRecord = 200 * simtime.Microsecond
	mech := &Mechanism{}
	scaled := scaletest.Run{
		Workload:       wl,
		Mechanism:      mech,
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		Cluster:        scaletest.SlowMigrationCluster(4 << 20),
	}.Execute()
	if !scaled.Done {
		t.Fatal("scaling never completed")
	}
	mean, most := FetchStats(scaled.RT.Scale)
	// The counters agree with a scan of the per-sub-unit transfer counts.
	var units, sum, scanMax int
	for _, c := range mech.fetchCount {
		if c > 0 {
			units, sum, scanMax = units+1, sum+c, max(scanMax, c)
		}
	}
	if want := float64(sum) / float64(units); mean != want || most != scanMax {
		t.Fatalf("FetchStats = (%v, %d), per-sub-unit scan (%v, %d)", mean, most, want, scanMax)
	}
	if mean < 1 {
		t.Fatalf("mean fetches per sub-unit %v < 1", mean)
	}
	if most < 2 {
		t.Fatalf("max fetches per sub-unit %d — no back-and-forth observed", most)
	}
	if scaled.RT.Scale.Counter("meces_refetches") == 0 {
		t.Fatal("no refetches counted")
	}
}

func TestLowestPropagationDelay(t *testing.T) {
	// Meces's single synchronization gives it the paper's lowest cumulative
	// propagation delay (Fig 12a): one signal, first migration almost
	// immediately after the routing flip.
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(44),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
	}.Execute()
	prop := scaled.RT.Scale.CumulativePropagationDelay()
	if prop <= 0 {
		t.Fatal("no propagation delay recorded")
	}
	if prop > simtime.Ms(50) {
		t.Fatalf("meces propagation delay %v too high for a single-sync design", prop)
	}
}

func TestName(t *testing.T) {
	if (&Mechanism{}).Name() != "meces" {
		t.Fatal("name")
	}
}
