package main

import (
	"fmt"

	"drrs/internal/policysearch"
)

// cell is one whole run a workload executes: a registered scenario under one
// mechanism at -seed+SeedOff. Cells run one after another on one worker.
type cell struct {
	Scenario  string
	Mechanism string
	SeedOff   int64
	// Candidate, when set, is a policy-search grid point applied to the
	// scenario through Candidate.Apply before the run.
	Candidate *policysearch.Candidate
	// RoundTrip turns the cell into record → Trace.Write → ReadTrace →
	// Replay: two runs whose digests must agree.
	RoundTrip bool
}

// ID names the cell in reports, trace.json and reference.json.
func (c cell) ID() string {
	id := fmt.Sprintf("%s/%s/+%d", c.Scenario, c.Mechanism, c.SeedOff)
	if c.Candidate != nil {
		id += "/" + c.Candidate.Label()
	}
	if c.RoundTrip {
		id += "/roundtrip"
	}
	return id
}

// workloadDef is a fixed list of cells plus the reason it exists.
type workloadDef struct {
	Name  string
	Why   string
	Cells []cell
}

// cross expands scenarios × mechanisms × seed offsets, scenario-major, so a
// workload's cell order is fixed by its definition alone.
func cross(scenarios, mechs []string, offsets ...int64) []cell {
	var out []cell
	for _, sc := range scenarios {
		for _, m := range mechs {
			for _, off := range offsets {
				out = append(out, cell{Scenario: sc, Mechanism: m, SeedOff: off})
			}
		}
	}
	return out
}

func join(lists ...[]cell) []cell {
	var out []cell
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// workloads returns the benchmark's four workloads. Each is chosen so one
// group of layers dominates its CPU profile and another is close to idle;
// README.md records the measured shares.
func workloads() []workloadDef {
	var grid []cell
	for _, cand := range policysearch.SmokeSpace().Grid() {
		grid = append(grid, cell{Scenario: "flash-crowd-reactive", Mechanism: "drrs", Candidate: &cand})
	}
	return []workloadDef{
		{
			Name: "paper-pipelines",
			Why:  "the paper's three jobs on one flat node: scheduler, edges and engine dominate; traffic, cluster, control and faults are idle",
			Cells: cross([]string{"twitch", "q7", "q8"},
				[]string{"no-scale", "drrs", "meces", "megaphone", "otfs"}, 0),
		},
		{
			Name: "wide-cluster",
			Why:  "256 to 320 instances on 8 racks x 16 nodes: per-record name lookups, placement and rack-uplink transfers dominate",
			Cells: join(
				cross([]string{"bigcluster-128"}, []string{"no-scale", "drrs", "meces", "megaphone"}, 0),
				cross([]string{"bigcluster-128"}, []string{"drrs"}, 1),
				cross([]string{"hetero-tiers", "rack-skew"}, []string{"drrs", "meces"}, 0),
			),
		},
		{
			Name: "traffic-heavy",
			Why:  "1200 cohorts with gamma/Weibull arrivals plus trace encode, decode and replay: the traffic generator and RNG carry a quarter of the CPU",
			Cells: join(
				cross([]string{"million-users"}, []string{"no-scale", "drrs", "meces", "megaphone"}, 0, 1, 2),
				cross([]string{"trace-replay"}, []string{"drrs", "megaphone"}, 0),
				cross([]string{"diurnal-autoscale", "oscillation-guard"}, []string{"drrs"}, 0),
				[]cell{{Scenario: "million-users", Mechanism: "drrs", RoundTrip: true}},
			),
		},
		{
			Name: "fault-sweep",
			Why:  "many short closed-loop runs under fault plans and policy candidates: construction, checkpoints, GC, control, faults and retry paths carry weight",
			Cells: join(
				cross([]string{"node-loss-mid-migrate", "straggler-rack", "flaky-uplink", "flaky-uplink-retry"},
					[]string{"drrs", "meces", "megaphone"}, 0, 1),
				grid,
			),
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
