package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Definition is one scenario: a name, a one-line description for listings,
// and a constructor. An entry in definitions is all it takes to make it
// reachable from drrs-bench (-list, -workload, sweeps) and the figure
// harnesses.
type Definition struct {
	Name        string
	Description string
	// Layout names the deployment substrate for listings ("" reads as the
	// default flat single-node cluster).
	Layout string
	New    func(seed int64) Scenario
}

// definitions is every scenario reachable by name from drrs-bench (-list,
// -workload, sweeps) and the figure harnesses, in listing order: the chaos
// track, the paper and workload-shape scenarios, the closed-loop track, the
// topology track and the traffic track. Adding a workload is one entry plus a
// constructor; EXPERIMENTS.md documents each scenario's down-scaling. The
// table is never written, so the parallel runners share it without locking.
var definitions = []Definition{
	{Name: "node-loss-mid-migrate",
		Description: "reactive scale-out whose destination node crashes mid-migration; checkpoint restore + re-plan",
		Layout:      "4 racks × 4 nodes; crash r0n1 at 13s (restarts at 19s), ckpt 2s",
		New:         NodeLossScenario},
	{Name: "straggler-rack",
		Description: "the operator's home rack degrades to 0.4× mid-run; the controller scales around it",
		Layout:      "4 racks × 4 nodes; r0n0–r0n3 straggle at 12s, heal at 24s",
		New:         StragglerRackScenario},
	{Name: "flaky-uplink",
		Description: "spread scale-out over a rack uplink that degrades, partitions, then heals mid-migration",
		Layout:      "4 racks × 4 nodes; r1 uplink 4MB/s→256KB/s at 11s, partitioned 13–18s, healed 21s",
		New:         FlakyUplinkScenario},
	{Name: "flaky-uplink-retry",
		Description: "flaky-uplink with transfer retry armed and the controller in degraded mode: transient failures back off and re-send instead of settling",
		Layout:      "4 racks × 4 nodes; r1 partitioned 11–14s; retries ×4 (500ms..4s backoff), degraded debounce 4s",
		New:         FlakyUplinkRetryScenario},
	{Name: "q7",
		Description: "NEXMark Q7 sliding-window max: high rate, short window (Figs 10–13)",
		New:         Q7Scenario},
	{Name: "q8",
		Description: "NEXMark Q8 person⋈auction join: low rate, the largest state (Figs 10–13)",
		New:         Q8Scenario},
	{Name: "twitch",
		Description: "seven-operator Twitch loyalty pipeline (Figs 2, 10–14)",
		New:         TwitchScenario},
	{Name: "sensitivity",
		Description: "Fig 15 custom job at the grid midpoint (8K tps, 15 MB, skew 0.5, 4-node cluster)",
		Layout:      "4-node heterogeneous Swarm",
		New: func(seed int64) Scenario {
			return SensitivityScenario(seed, 8000, 15<<20, 0.5)
		}},
	{Name: "flash-crowd",
		Description: "custom job under a 1.25× load spike: scale out into the spike, back after it",
		New:         FlashCrowdScenario},
	{Name: "diurnal",
		Description: "custom job under a compressed day/night ramp with an out-then-back program",
		New:         DiurnalScenario},
	{Name: "hotshift",
		Description: "custom job whose Zipf hot set drifts through the key space during scaling",
		New:         HotShiftScenario},
	{Name: "twitch-rebound",
		Description: "Twitch pipeline scaling 8→12 and back 12→8 once the crowd disperses",
		New:         TwitchReboundScenario},
	// The closed-loop track: scaling is triggered by the workload itself —
	// a control policy observing backlog/throughput/latency decides when and
	// how far to scale, instead of a pre-scripted wave program.
	{Name: "flash-crowd-reactive",
		Description: "1.5× flash crowd with the backlog policy chasing the spike (no script)",
		New:         FlashCrowdReactiveScenario},
	{Name: "diurnal-autoscale",
		Description: "day/night ramp with the predictive policy scaling into the trend",
		New:         DiurnalAutoscaleScenario},
	{Name: "oscillation-guard",
		Description: "hotshift drift under the threshold policy; debounce+hysteresis damp flapping",
		New:         OscillationGuardScenario},
	{Name: "rack-skew",
		Description: "custom job packed onto one of 4 racks; scale-out lands rack-local vs cross-rack",
		Layout:      "4 racks × 4 nodes, 2 MB/s NICs, shared 4 MB/s uplinks",
		New:         RackSkewScenario},
	{Name: "bigcluster-128",
		Description: "custom job at 256→320 instances on 128 nodes — the production-scale stress",
		Layout:      "8 racks × 16 nodes, 8 MB/s NICs, shared 32 MB/s uplinks",
		New:         BigCluster128Scenario},
	{Name: "hetero-tiers",
		Description: "three hardware tiers (1.3×/1.0×/0.7×); the slow tier gates scale-out and scale-back",
		Layout:      "3 racks × 8 nodes, tiered speeds",
		New:         HeteroTiersScenario},
	{Name: "million-users",
		Description: "1200 heterogeneous user cohorts, staggered diurnal peaks, drifting hot sets, backlog-driven autoscaling",
		Layout:      "1 node",
		New:         MillionUsersScenario},
	{Name: "trace-replay",
		Description: "replays a recorded multi-cohort trace through the custom job (swap the trace with -replay)",
		Layout:      "1 node",
		New:         TraceReplayScenario},
}

// Definitions returns every scenario definition in listing order.
func Definitions() []Definition { return slices.Clone(definitions) }

// ScenarioNames returns the scenario names in listing order.
func ScenarioNames() []string {
	names := make([]string, len(definitions))
	for i, def := range definitions {
		names[i] = def.Name
	}
	return names
}

// lookup resolves a scenario name; an unknown one is an error
// listing every known name.
func lookup(name string) (Definition, error) {
	for _, def := range definitions {
		if def.Name == name {
			return def, nil
		}
	}
	known := ScenarioNames()
	sort.Strings(known)
	return Definition{}, fmt.Errorf("bench: unknown workload %q (known: %s)", name, strings.Join(known, ", "))
}

// ScenarioByName builds a registered scenario for the seed. An unknown name
// panics with lookup's error: callers holding a user-supplied name resolve it
// through Harness.Scenario instead.
func ScenarioByName(name string, seed int64) Scenario {
	def, err := lookup(name)
	if err != nil {
		panic(err)
	}
	return def.New(seed)
}
