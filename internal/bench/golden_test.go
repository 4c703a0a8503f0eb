package bench

import (
	"testing"

	"drrs/internal/scaling/meces"
)

// goldenDigests pins the OutcomeDigest of fixed-seed runs. The values must
// survive every perf refactor unchanged — with one deliberate exception,
// below: same latency curve sample for sample, same throughput buckets, same
// migration byte accounting, same per-wave scaling metrics. A mismatch means
// an optimization changed what the simulated system *does*, not just how
// fast the simulator runs — rerecord only with a semantic change you can
// defend in review.
//
// The one exception is the generator swap, a commit that changed the stream
// generator and nothing else: every named simtime.RNG stream moved from
// math/rand's 607-word source to math/rand/v2's PCG, which redraws every
// random number in every run, so every pin in this table (and
// TestOverrideDigests, the stream checksums and the event budgets) was
// re-recorded at that commit. The paper's orderings were re-checked
// across seeds 1–8 before re-pinning (EXPERIMENTS.md, "Generator swap").
// Before it, the values dated from the boxed (pre-slab, timer-per-record)
// data plane.
//
// Raw scheduler event counts are deliberately outside the digest (see
// OutcomeDigest): wake coalescing and batched emission may change them.
var goldenDigests = []struct {
	scenario string
	mech     string
	seed     int64
	want     uint64
}{
	{"twitch", "drrs", 7, 0xd58e53c0cc71a727},
	{"twitch", "no-scale", 7, 0x1cdda90cf2a13cac},
	// One pin per baseline mechanism (and the schedule-only ablation, a
	// configuration of the coupled-barrier mechanism), recorded at commit
	// 2ac2be7 — before they moved to the single Begin contract, which these
	// pins show changed nothing. Stable across two in-process runs each.
	{"twitch", "meces", 7, 0xd966d644c95711f8},
	{"twitch", "megaphone", 7, 0xb646570bbf85b7b8},
	{"twitch", "otfs", 7, 0xfb944932b6cb6cc4},
	{"twitch", "otfs-allatonce", 7, 0x81e6c32b6b3591a2},
	{"twitch", "stop-restart", 7, 0xd216e998602b35ab},
	{"twitch", "unbound", 7, 0xa4d4f098d8e9ad87},
	{"twitch", "drrs-schedule", 7, 0x632d373536fbe533},
	// The DR-only and subscale-only ablations, recorded before the coupled
	// configurations were folded into one mechanism.
	{"twitch", "drrs-dr", 7, 0xe1dd9eec4800dae6},
	{"twitch", "drrs-subscale", 7, 0x8d772ce595076b83},
	{"bigcluster-128", "drrs", 3, 0x621a6ee9520614fc},
	// Closed-loop: the digest additionally folds in the controller's
	// decision audit trail, so a policy or controller change that shifts any
	// decision (time, target, supersession) fails here.
	{"flash-crowd-reactive", "drrs", 5, 0x803d4df1fda8125e},
	// Chaos track: the digest additionally folds in the fault summary
	// (crashes, failed transfers, recovered/lost groups, replay accounting)
	// and each decision's Recovery flag. Faults fire at planned virtual-time
	// offsets from a dedicated RNG stream, so a faulted run pins exactly like
	// a healthy one — across two seeds each, per the chaos acceptance bar.
	{"node-loss-mid-migrate", "drrs", 1, 0xb9dbdf38e41418e0},
	{"node-loss-mid-migrate", "drrs", 2, 0x092e541ed5b75a30},
	{"straggler-rack", "drrs", 1, 0xb953eaf9b43412ee},
	{"straggler-rack", "drrs", 2, 0x32efa92211c72b40},
	// Re-pinned when the chaos search's liveness oracle caught a wedge in the
	// revert path: a reverted chunk's destination was never woken, so rerouted
	// records (and the confirm behind them) stayed suspension-blocked on a
	// chunk that would never arrive — the seed-2 run sat at done=false with a
	// permanently in-flight operation. The old digests pinned that bug.
	{"flaky-uplink", "drrs", 1, 0xe54754c88ab7da9c},
	{"flaky-uplink", "drrs", 2, 0x9e1238945dcbcb1a},
	// Meces under faults: crashes and partitions drive its transfer failure
	// path (the sub-unit merges back into its source shell) and keep its
	// background pusher running for seconds with every away sub-unit in
	// flight. Recorded before the pusher's bookkeeping moved to counters.
	{"node-loss-mid-migrate", "meces", 1, 0x267f8e8d1251ce87},
	{"node-loss-mid-migrate", "meces", 2, 0x2a3ca01a26bd34ca},
	{"flaky-uplink", "meces", 1, 0x7f0235abb8b34098},
	{"flaky-uplink", "meces", 2, 0x7e011825017a231c},
	// scaling.Migrator's failure paths under a node lost mid-migration: the
	// fluid chain's settle (45 failed transfers), MigrateAllAtOnce's
	// per-batch settle, and Unbound, whose operation is paid one unit per
	// settled move.
	{"node-loss-mid-migrate", "otfs", 1, 0xb88d52d66c439d67},
	{"node-loss-mid-migrate", "otfs-allatonce", 1, 0x93dad5508912067e},
	{"node-loss-mid-migrate", "unbound", 2, 0x20f717eacb33dde8},
	// Graceful degradation: the retry scenario partitions r1 right before
	// the scale-out's cross-rack transfers launch, so every chunk toward r1
	// rides the capped-backoff retry loop (3 deterministic re-attempts per
	// seed) and lands after the heal; the digest additionally folds the
	// retry counter. A backoff, classification, or degraded-debounce change
	// that shifts any re-attempt fails here.
	{"flaky-uplink-retry", "drrs", 1, 0x1d6e6f77ec7fc6b2},
	{"flaky-uplink-retry", "drrs", 2, 0xff97b00c8123f2db},
	// Cohort traffic: million-users exercises the full Spec surface (all four
	// arrival processes, shared Zipf tables, staggered diurnal phases, hot-key
	// drift, fixed key sets) under backlog-driven autoscaling, across two
	// seeds; trace-replay pins the trace codec end to end — a format or
	// repartition change that moves any arrival fails here.
	{"million-users", "drrs", 1, 0x5c521e73133b2a13},
	{"million-users", "drrs", 2, 0x944bf3843a05a83d},
	{"trace-replay", "drrs", 1, 0x4f1b960fe30f00e9},
}

// TestGoldenDigests replays each pinned scenario and compares the digest.
// twitch covers the seven-operator pipeline end to end (typed payloads
// through keyed reduce, map filters, markers, and a full DRRS scaling
// operation); bigcluster-128 covers the batched workload generator, the
// rack fabric's byte accounting, and 256→320-instance migration.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate a few hundred virtual seconds")
	}
	for _, c := range goldenDigests {
		t.Run(c.scenario+"/"+c.mech, func(t *testing.T) {
			t.Parallel() // a run reads nothing but its Scenario value
			if got := OutcomeDigest(sharedRun(t, c.scenario, c.seed, c.mech)); got != c.want {
				t.Errorf("outcome digest 0x%016x, want 0x%016x — the refactor changed simulation semantics",
					got, c.want)
			}
		})
	}
}

// TestMecesFetchStatsQ7 pins the paper's §V-B Meces statistic on Q7 — the
// mean over sub-key-groups transferred at least once, and the max — which the
// outcome digest does not cover.
func TestMecesFetchStatsQ7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full q7 run")
	}
	t.Parallel()
	o := sharedRun(t, "q7", 1, "meces")
	const wantMean, wantMax = 2.126126126126126, 157
	if mean, max := meces.FetchStats(o.Scale); mean != wantMean || max != wantMax {
		t.Errorf("FetchStats() = (%v, %d), want (%v, %d)", mean, max, wantMean, wantMax)
	}
}

// TestOutcomeDigestSensitivity guards the digest itself: different seeds
// (and different mechanisms) must not collide, or the golden test would
// wave through regressions.
func TestOutcomeDigestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("digest sensitivity simulates two scenario runs")
	}
	t.Parallel()
	a := OutcomeDigest(sharedRun(t, "twitch", 7, "no-scale"))
	b := OutcomeDigest(sharedRun(t, "twitch", 1, "no-scale"))
	if a == b {
		t.Fatal("digest ignored the seed")
	}
}

// eventBudgets pins Outcome.Events — which the digest deliberately leaves
// out — as ceilings for three fixed-seed runs. The ceilings are the exact
// counts at the commit that made wakes demand-driven (an edge wakes its sender
// only after refusing it, a busy instance is not woken, the end-of-service
// poll happens only when something is queued); the always-wake data plane
// before it fired 7 523 415 / 7 547 699 / 3 774 331 events for the same
// records. A reintroduced no-op wake costs a few per cent of wall time, which
// hides in host noise, but thousands of events, which cannot hide here. A
// change that removes more events should lower the ceiling it beats. The
// generator swap redrew every stream and re-recorded all three at its exact
// counts (all fell: by 1 578, 1 712 and 22 events). Tail-inlined steps (a
// callback whose last act is a wake runs the step inline when nothing else
// is due now) lowered all three to their exact counts again, from 4 631 136 /
// 4 646 733 / 2 523 657. Sources emitting in place (Ingest and EmitWatermark
// drain the backlog instead of scheduling a wake) lowered them once more,
// from 3 408 890 / 3 423 304 / 1 956 754.
var eventBudgets = []struct {
	scenario string
	mech     string
	seed     int64
	ceiling  uint64
}{
	{"twitch", "no-scale", 1, 3_177_436},
	{"twitch", "drrs", 1, 3_191_842},
	{"bigcluster-128", "drrs", 1, 1_955_066},
}

// TestEventBudget replays each budgeted run and fails when it fires more
// scheduler events than its ceiling.
func TestEventBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("event budgets simulate three full runs")
	}
	for _, c := range eventBudgets {
		t.Run(c.scenario+"/"+c.mech, func(t *testing.T) {
			t.Parallel()
			o := sharedRun(t, c.scenario, c.seed, c.mech)
			if o.Events > c.ceiling {
				t.Errorf("%d scheduler events, budget %d (+%d): some wake-up fires without work to do",
					o.Events, c.ceiling, o.Events-c.ceiling)
			}
			if o.Events < c.ceiling {
				t.Logf("%d scheduler events, %d under the budget of %d: lower the ceiling",
					o.Events, c.ceiling-o.Events, c.ceiling)
			}
		})
	}
}
