package unbound

import (
	"testing"

	"drrs/internal/scaletest"
	"drrs/internal/simtime"
)

func TestNoSuspensionEver(t *testing.T) {
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(51),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		Cluster:        scaletest.SlowMigrationCluster(2 << 20),
	}.Execute()
	if !scaled.Done {
		t.Fatal("background migration never completed")
	}
	if s := scaled.RT.Scale.CumulativeSuspension(); s != 0 {
		t.Fatalf("unbound suspended for %v; it must never suspend", s)
	}
}

func TestNoRecordLossButWrongAggregates(t *testing.T) {
	// Unbound must deliver every record exactly once (it loses no data) but
	// its per-key aggregates are corrupted by the split-state processing —
	// that corruption is the whole point of the diagnostic.
	base := scaletest.Run{Workload: scaletest.DefaultWorkload(52)}.Execute()
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(52),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		Cluster:        scaletest.SlowMigrationCluster(2 << 20),
	}.Execute()
	if scaled.Sink.Records != base.Sink.Records {
		t.Fatalf("record count %d vs %d: unbound must not lose records",
			scaled.Sink.Records, base.Sink.Records)
	}
	if d := scaled.Sink.Duplicates(); d != 0 {
		t.Fatalf("%d duplicates", d)
	}
	mismatch := false
	for k, want := range base.ByKey {
		if scaled.ByKey[k] != want {
			mismatch = true
			break
		}
	}
	if !mismatch {
		t.Fatal("unbound produced perfectly correct aggregates — the universal-key corruption did not manifest, so the diagnostic is not exercising what it claims")
	}
}

func TestParticipationAndCompletion(t *testing.T) {
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(53),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
	}.Execute()
	if msg := scaletest.CheckParticipation(scaled); msg != "" {
		t.Fatal(msg)
	}
	if scaled.RT.Scale.UnitsMigrated() != len(scaled.Plan.Moves) {
		t.Fatalf("migrated %d of %d", scaled.RT.Scale.UnitsMigrated(), len(scaled.Plan.Moves))
	}
}

func TestName(t *testing.T) {
	if (&Mechanism{}).Name() != "unbound" {
		t.Fatal("name")
	}
}
