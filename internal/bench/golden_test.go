package bench

import (
	"testing"

	"drrs/internal/scaling"
)

// goldenDigests pins the OutcomeDigest of fixed-seed runs. The values were
// recorded on the boxed (pre-slab, timer-per-record) data plane and must
// survive every perf refactor unchanged: same latency curve sample for
// sample, same throughput buckets, same migration byte accounting, same
// per-wave scaling metrics. A mismatch means an optimization changed what
// the simulated system *does*, not just how fast the simulator runs —
// rerecord only with a semantic change you can defend in review.
//
// Raw scheduler event counts are deliberately outside the digest (see
// OutcomeDigest): wake coalescing and batched emission may change them.
var goldenDigests = []struct {
	scenario string
	mech     string
	seed     int64
	want     uint64
}{
	{"twitch", "drrs", 7, 0x79187e882232338c},
	{"twitch", "no-scale", 7, 0xe14e359c8c083a1d},
	// One pin per baseline mechanism (and the schedule-only ablation, which
	// takes core's non-DR path), recorded at commit 2ac2be7 — before they
	// moved to the single Begin contract, which these pins show changed
	// nothing. Stable across two in-process runs each.
	{"twitch", "meces", 7, 0x3888ea5b06f56131},
	{"twitch", "megaphone", 7, 0x464d9e008d9397f9},
	{"twitch", "otfs", 7, 0xe2f1a9fce8d38e25},
	{"twitch", "otfs-allatonce", 7, 0x64ae9ba11ff3f91e},
	{"twitch", "stop-restart", 7, 0xc80b900b56151a98},
	{"twitch", "unbound", 7, 0x81c170642245d066},
	{"twitch", "drrs-schedule", 7, 0x531a379581f5566b},
	{"bigcluster-128", "drrs", 3, 0xc0ecb820c15b5e67},
	// Closed-loop: the digest additionally folds in the controller's
	// decision audit trail, so a policy or controller change that shifts any
	// decision (time, target, supersession) fails here.
	{"flash-crowd-reactive", "drrs", 5, 0x3d5a2fbe3a92a654},
	// Chaos track: the digest additionally folds in the fault summary
	// (crashes, failed transfers, recovered/lost groups, replay accounting)
	// and each decision's Recovery flag. Faults fire at planned virtual-time
	// offsets from a dedicated RNG stream, so a faulted run pins exactly like
	// a healthy one — across two seeds each, per the chaos acceptance bar.
	{"node-loss-mid-migrate", "drrs", 1, 0x6f6ae03c41252add},
	{"node-loss-mid-migrate", "drrs", 2, 0x450e5f559fae31bf},
	{"straggler-rack", "drrs", 1, 0xe4162c7acf3710f7},
	{"straggler-rack", "drrs", 2, 0x850848da37ede3ff},
	// Re-pinned when the chaos search's liveness oracle caught a wedge in the
	// revert path: a reverted chunk's destination was never woken, so rerouted
	// records (and the confirm behind them) stayed suspension-blocked on a
	// chunk that would never arrive — the seed-2 run sat at done=false with a
	// permanently in-flight operation. The old digests pinned that bug.
	{"flaky-uplink", "drrs", 1, 0xd5e7c2e54d3c0f9d},
	{"flaky-uplink", "drrs", 2, 0x5bf96fca3136d95d},
	// Graceful degradation: the retry scenario partitions r1 right before
	// the scale-out's cross-rack transfers launch, so every chunk toward r1
	// rides the capped-backoff retry loop (3 deterministic re-attempts per
	// seed) and lands after the heal; the digest additionally folds the
	// retry counter. A backoff, classification, or degraded-debounce change
	// that shifts any re-attempt fails here.
	{"flaky-uplink-retry", "drrs", 1, 0x99d35eee7cde67c1},
	{"flaky-uplink-retry", "drrs", 2, 0x5e4ecfed2501f675},
	// Cohort traffic: million-users exercises the full Spec surface (all four
	// arrival processes, shared Zipf tables, staggered diurnal phases, hot-key
	// drift, fixed key sets) under backlog-driven autoscaling, across two
	// seeds; trace-replay pins the trace codec end to end — a format or
	// repartition change that moves any arrival fails here.
	{"million-users", "drrs", 1, 0x6ea3f3664d90c4d9},
	{"million-users", "drrs", 2, 0xdc82e6b67928e013},
	{"trace-replay", "drrs", 1, 0x17c13a9bce72a33d},
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
			// RunWith with a fresh-factory: controller scenarios launch as
			// many operations as the policy decides.
			o := ScenarioByName(c.scenario, c.seed).
				RunWith(func() scaling.Mechanism { return Mechanisms(c.mech) })
			if got := OutcomeDigest(o); got != c.want {
				t.Errorf("outcome digest 0x%016x, want 0x%016x — the refactor changed simulation semantics",
					got, c.want)
			}
		})
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
	a := OutcomeDigest(TwitchScenario(7).Run(nil))
	b := OutcomeDigest(TwitchScenario(8).Run(nil))
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
// change that removes more events should lower the ceiling it beats.
var eventBudgets = []struct {
	scenario string
	mech     string
	seed     int64
	ceiling  uint64
}{
	{"twitch", "no-scale", 1, 4_632_714},
	{"twitch", "drrs", 1, 4_648_445},
	{"bigcluster-128", "drrs", 1, 2_523_679},
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
			o := ScenarioByName(c.scenario, c.seed).
				RunWith(func() scaling.Mechanism { return Mechanisms(c.mech) })
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
