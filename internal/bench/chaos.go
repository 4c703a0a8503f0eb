package bench

import (
	"fmt"

	"drrs/internal/control"
	"drrs/internal/engine"
	"drrs/internal/faults"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// The chaos track: the paper evaluates rescaling on a healthy cluster; these
// scenarios rescale one that is actively failing underneath the migration —
// a destination node dying mid-flight, a rack straggling, a shared uplink
// degrading into a partition. Everything stays deterministic (faults fire at
// planned virtual-time offsets; the dedicated "faults" RNG stream is only
// consulted for explicit jitter), so golden digests pin chaos runs exactly
// like healthy ones. EXPERIMENTS.md §Chaos documents the recovery model.

// FaultSummary is the fault-and-recovery slice of an Outcome. Nil on
// unfaulted runs — its fields fold into OutcomeDigest only when present, so
// pre-fault-layer digests stay byte-identical.
type FaultSummary struct {
	// Stats is what the injector did and what recovery cost. Its
	// WipedGroups and RelocatedGroups, which complete the crash-wipe
	// identity the chaos conservation oracle checks, are deliberately NOT
	// folded into OutcomeDigest: they derive from the already-folded
	// recovery flow, and folding them would break every pinned chaos digest.
	faults.Stats
	// RecordsLost counts data records dropped at dead instances (in-flight at
	// the crash, or stranded at a destination whose state chunk reverted).
	RecordsLost uint64
	// Replans counts controller decisions marked Recovery: involuntary
	// supersessions re-planning an in-flight operation around a disruption.
	Replans int
}

func (f *FaultSummary) String() string {
	s := fmt.Sprintf("faults=%d crashes=%d failedXfers=%d recovered=%d lost=%d replans=%d recordsLost=%d replayed=%d recovery=%.0fms",
		f.Events, f.Crashes, f.FailedTransfers, f.RecoveredGroups, f.LostGroups,
		f.Replans, f.RecordsLost, f.ReplayedRecords, f.RecoveryMs)
	if f.RetriedTransfers > 0 {
		s += fmt.Sprintf(" retries=%d", f.RetriedTransfers)
	}
	return s
}

// faultSummary assembles the Outcome's fault block (nil without an injector).
func faultSummary(inj *faults.Injector, rt *engine.Runtime, decisions []control.Decision) *FaultSummary {
	if inj == nil {
		return nil
	}
	fs := &FaultSummary{Stats: inj.Stats(), RecordsLost: rt.LostRecords()}
	for _, d := range decisions {
		if d.Recovery {
			fs.Replans++
		}
	}
	return fs
}

// chaosScenario is the shared substrate: the custom job under a 1.5× flash
// crowd on the rack4x4 fabric, driven closed-loop by the backlog policy —
// the spike forces a scale-out right as the fault plan starts firing.
func chaosScenario(name string, placement string, plan *faults.Plan, seed int64) Scenario {
	return Scenario{
		Name: name,
		Job: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    8,
			MaxKeyGroups:      128,
			StateBytesPerKey:  1024,
			CostPerRecord:     1500 * simtime.Microsecond,
		},
		Traffic: workload.Classic(workload.ClassicSpec{
			Keys:       8000,
			RatePerSec: 2000, // ×2 sources = 4K tps baseline, util ≈ 0.75
			Skew:       0.8,
			Shape:      workload.FlashCrowd(shapeWarmup, simtime.Sec(10), 1.5),
			Duration:   shapeHorizon,
			Seed:       seed,
		}),
		ScaleOp:        "agg",
		NewParallelism: 12, // scripted fallback for -driver script
		Driver:         &ControllerDriver{Policy: "backlog", Min: 4, Max: 16},
		Warmup:         shapeWarmup,
		Measure:        shapeMeasure,
		Setup:          simtime.Ms(200),
		Cluster:        TopologyByName("rack4x4"),
		Placement:      placement,
		Faults:         plan,
		Seed:           seed,
	}
}

// NodeLossScenario is the tentpole chaos run: rack-local placement packs the
// job onto r0, the flash crowd triggers a scale-out at ~12.5s, and r0n1 —
// which hosts both original and freshly deployed instances — crashes at 13s,
// while chunks are still in flight toward it. Transfers to the corpse fail, the
// mechanism reverts those groups to their sources, the controller's health
// feed fires an involuntary re-plan, and the injector restores the crashed
// instances from the 2s-cadence checkpoint (replaying lost progress) before
// the node itself returns at 18s.
func NodeLossScenario(seed int64) Scenario {
	return chaosScenario("node-loss-mid-migrate", "", &faults.Plan{
		CheckpointEvery: 2 * simtime.Second,
		RecoveryDelay:   simtime.Second,
		Faults: []faults.Fault{
			{Kind: faults.Crash, At: simtime.Sec(13), Node: "r0n1", Restart: simtime.Sec(6)},
		},
	}, seed)
}

// StragglerRackScenario degrades every node on the operator's home rack to
// 0.4× speed two seconds after the flash crowd lands: capacity collapses
// under the spike, backlog grows, and the controller has to scale out onto
// the healthy racks while r0 crawls. The rack heals 12 seconds later.
func StragglerRackScenario(seed int64) Scenario {
	fs := make([]faults.Fault, 0, 4)
	for n := 0; n < 4; n++ {
		fs = append(fs, faults.Fault{
			Kind: faults.Straggle, At: simtime.Sec(12),
			Node: fmt.Sprintf("r0n%d", n), Factor: 0.4, Heal: simtime.Sec(12),
		})
	}
	return chaosScenario("straggler-rack", "", &faults.Plan{Faults: fs}, seed)
}

// FlakyUplinkScenario forces migration across rack uplinks (spread placement)
// and then takes r1's uplink through the full failure arc: degraded to
// 256 KB/s at 11s, fully partitioned 13–18s, back to 256 KB/s until the
// degradation heals at 21s. Cross-rack chunk transfers stall, then fail
// outright — mechanisms revert the affected groups, the controller re-plans,
// and whatever still targets r1 completes once the uplink returns.
func FlakyUplinkScenario(seed int64) Scenario {
	return chaosScenario("flaky-uplink", "spread", &faults.Plan{
		Faults: []faults.Fault{
			{Kind: faults.Uplink, At: simtime.Sec(11), Rack: "r1", Bandwidth: 256 << 10, Heal: simtime.Sec(10)},
			{Kind: faults.Uplink, At: simtime.Sec(13), Rack: "r1", Bandwidth: 0, Heal: simtime.Sec(5)},
		},
	}, seed)
}

// FlakyUplinkRetryScenario is the graceful-degradation counterpart of
// flaky-uplink: r1's uplink partitions outright at 10.3s — right before the
// flash-crowd scale-out launches its cross-rack chunk transfers — but the
// plan arms the cluster's transfer retry (×4, 500ms..4s backoff), so chunks
// that would have failed and settled back to their sources instead back off
// deterministically and land once the partition heals at 13.3s. The driver's
// degraded mode widens the controller's debounce to 4s after the disruption,
// holding further voluntary rescaling while the cluster is unstable. Pinned
// by golden digests across two seeds.
func FlakyUplinkRetryScenario(seed int64) Scenario {
	sc := chaosScenario("flaky-uplink-retry", "spread", &faults.Plan{
		TransferRetries: 4,
		RetryBase:       500 * simtime.Millisecond,
		RetryCap:        4 * simtime.Second,
		Faults: []faults.Fault{
			{Kind: faults.Uplink, At: simtime.Ms(10300), Rack: "r1", Bandwidth: 0, Heal: simtime.Sec(3)},
		},
	}, seed)
	sc.Driver = &ControllerDriver{Policy: "backlog", Min: 4, Max: 16,
		DegradedDebounce: 4 * simtime.Second}
	return sc
}
