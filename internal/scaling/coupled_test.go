package scaling_test

import (
	"testing"

	"drrs/internal/scaletest"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

func runOTFSPair(t *testing.T, fluid bool, seed int64) (scaletest.Result, scaletest.Result) {
	t.Helper()
	base := scaletest.Run{Workload: scaletest.DefaultWorkload(seed)}.Execute()
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(seed),
		Mechanism:      scaling.OTFS(fluid),
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
	}.Execute()
	return base, scaled
}

func TestOTFSFluidExactlyOnce(t *testing.T) {
	base, scaled := runOTFSPair(t, true, 11)
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

func TestOTFSAllAtOnceExactlyOnce(t *testing.T) {
	base, scaled := runOTFSPair(t, false, 12)
	if !scaled.Done {
		t.Fatal("scaling never completed")
	}
	if msg := scaletest.CheckExactlyOnce(base, scaled); msg != "" {
		t.Fatal(msg)
	}
	if msg := scaletest.CheckPlacement(scaled); msg != "" {
		t.Fatal(msg)
	}
}

func TestOTFSScalingMetricsRecorded(t *testing.T) {
	_, scaled := runOTFSPair(t, true, 13)
	m := scaled.RT.Scale
	if !m.Ended() {
		t.Fatal("scale end not marked")
	}
	if m.UnitsMigrated() != len(scaled.Plan.Moves) {
		t.Fatalf("migrated %d of %d units", m.UnitsMigrated(), len(scaled.Plan.Moves))
	}
	if m.CumulativePropagationDelay() <= 0 {
		t.Fatal("no propagation delay recorded (source injection must cost something)")
	}
	if m.AvgDependencyOverhead() <= 0 {
		t.Fatal("no dependency overhead recorded")
	}
}

func TestOTFSFluidMakesStateAvailableEarlier(t *testing.T) {
	// The motivation for fluid migration (Fig 1c): the first state unit is
	// usable long before the batch finishes, so per-unit completion times
	// spread out instead of all landing together. (Cumulative suspension is
	// workload-dependent — the paper notes fluid can degenerate to
	// all-at-once when the head record needs the tail unit — so the test
	// asserts the deterministic property.)
	mk := func(fluid bool) (first, last simtime.Time) {
		res := scaletest.Run{
			Workload:       scaletest.DefaultWorkload(21),
			Mechanism:      scaling.OTFS(fluid),
			ScaleAt:        simtime.Sec(1),
			NewParallelism: 6,
			Cluster:        scaletest.SlowMigrationCluster(4 << 20),
		}.Execute()
		times := res.RT.Scale.UnitDoneTimes()
		if len(times) == 0 {
			t.Fatal("no units migrated")
		}
		first, last = simtime.Time(1<<62), 0
		for _, at := range times {
			if at < first {
				first = at
			}
			if at > last {
				last = at
			}
		}
		return first, last
	}
	fFirst, fLast := mk(true)
	bFirst, bLast := mk(false)
	if fFirst >= bFirst {
		t.Fatalf("fluid first unit at %v, not earlier than all-at-once %v", fFirst, bFirst)
	}
	if fLast.Sub(fFirst) <= bLast.Sub(bFirst) {
		t.Fatalf("fluid spread %v should exceed batch spread %v",
			fLast.Sub(fFirst), bLast.Sub(bFirst))
	}
	// Both finish, and suspension is non-zero under slow migration.
}

func TestOTFSNames(t *testing.T) {
	if scaling.OTFS(true).Name() != "otfs-fluid" {
		t.Fatal("fluid name")
	}
	if scaling.OTFS(false).Name() != "otfs-allatonce" {
		t.Fatal("batch name")
	}
}

func TestMegaphoneExactlyOnce(t *testing.T) {
	base := scaletest.Run{Workload: scaletest.DefaultWorkload(31)}.Execute()
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(31),
		Mechanism:      scaling.Megaphone(2),
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

func TestMegaphoneSequentialRoundsStretchDependency(t *testing.T) {
	// Megaphone's signature (paper Fig 12): many sequential rounds mean the
	// later units wait for all earlier rounds, so cumulative propagation
	// delay and average dependency overhead dwarf a single-round OTFS run on
	// the same workload.
	mega := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(32),
		Mechanism:      scaling.Megaphone(1),
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		Cluster:        scaletest.SlowMigrationCluster(8 << 20),
	}.Execute()
	single := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(32),
		Mechanism:      scaling.OTFS(true),
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		Cluster:        scaletest.SlowMigrationCluster(8 << 20),
	}.Execute()
	if !mega.Done || !single.Done {
		t.Fatal("runs did not complete")
	}
	mp := mega.RT.Scale.CumulativePropagationDelay()
	sp := single.RT.Scale.CumulativePropagationDelay()
	if mp <= sp {
		t.Fatalf("megaphone cumulative propagation %v should exceed single-round %v", mp, sp)
	}
	md := mega.RT.Scale.AvgDependencyOverhead()
	sd := single.RT.Scale.AvgDependencyOverhead()
	if md <= sd {
		t.Fatalf("megaphone dependency overhead %v should exceed single-round %v", md, sd)
	}
	if mega.RT.Scale.MigrationDuration() <= single.RT.Scale.MigrationDuration() {
		t.Fatalf("megaphone scaling duration %v should exceed single-round %v",
			mega.RT.Scale.MigrationDuration(), single.RT.Scale.MigrationDuration())
	}
}

func TestMegaphoneBatchSizeTradeoff(t *testing.T) {
	// Bigger batches → fewer rounds → shorter total scaling duration.
	dur := func(batch int) simtime.Duration {
		res := scaletest.Run{
			Workload:       scaletest.DefaultWorkload(33),
			Mechanism:      scaling.Megaphone(batch),
			ScaleAt:        simtime.Sec(1),
			NewParallelism: 6,
		}.Execute()
		if !res.Done {
			t.Fatalf("batch=%d never completed", batch)
		}
		return res.RT.Scale.MigrationDuration()
	}
	small := dur(1)
	large := dur(16)
	if large >= small {
		t.Fatalf("batch=16 duration %v should beat batch=1 %v", large, small)
	}
}

func TestMegaphoneName(t *testing.T) {
	if scaling.Megaphone(0).Name() != "megaphone" {
		t.Fatal("name")
	}
}
