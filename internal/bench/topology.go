package bench

import (
	"fmt"
	"strings"

	"drrs/internal/cluster"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// The large-cluster track: the paper's sensitivity analysis stops at a
// 4-node Swarm cluster, but mechanism rankings can flip once network distance
// exists — per-node concurrency thresholds interact with shared rack uplinks,
// and where scale-out lands (rack-local vs cross-rack) changes what state
// transfer costs. These scenarios run the custom job on rack topologies from
// 16 to 128 nodes; TopologyFigure contrasts placement policies head-to-head.

// RackTopology returns a cluster factory for racks×nodesPerRack nodes named
// "r<i>n<j>" on racks "r<i>": slots instance slots and nodeBW migration
// bandwidth per node, a shared uplinkBW cross-rack pool and uplinkLat uplink
// latency per rack, per-rack speed factors (nil = homogeneous), and the named
// placement policy installed. The default "local" node is unschedulable so
// policies place every instance on the rack fabric.
func RackTopology(racks, nodesPerRack, slots int, nodeBW, uplinkBW float64,
	uplinkLat simtime.Duration, speeds []float64, policy string) func(*simtime.Scheduler) *cluster.Cluster {
	return func(s *simtime.Scheduler) *cluster.Cluster {
		c := cluster.New(s)
		c.Node("local").Unschedulable = true
		for r := 0; r < racks; r++ {
			rack := fmt.Sprintf("r%d", r)
			c.AddRack(rack, uplinkBW, uplinkLat)
			speed := 1.0
			if speeds != nil {
				speed = speeds[r%len(speeds)]
			}
			for n := 0; n < nodesPerRack; n++ {
				c.AddNodeOnRack(rack, fmt.Sprintf("%sn%d", rack, n), speed, nodeBW).Slots = slots
			}
		}
		c.SetPolicy(cluster.PolicyByName(policy))
		return c
	}
}

// Topologies lists the named deployment substrates drrs-bench -topology
// accepts.
func Topologies() []string {
	return []string{"flat", "swarm", "rack4x4", "rack8x16", "tiers3x8"}
}

// TopologyByName returns a cluster factory for a named substrate: "flat"
// (one node, 4 MB/s), "swarm" (the paper's 4-node heterogeneous cluster),
// "rack4x4" (16 nodes on 4 racks), "rack8x16" (128 nodes on 8 racks), or
// "tiers3x8" (24 nodes on 3 hardware tiers). Unknown names panic with the
// list.
func TopologyByName(name string) func(*simtime.Scheduler) *cluster.Cluster {
	switch name {
	case "flat":
		return func(s *simtime.Scheduler) *cluster.Cluster {
			c := cluster.New(s)
			c.Node("local").MigrationBandwidth = 4 << 20
			return c
		}
	case "swarm":
		return SwarmCluster(4 << 20)
	case "rack4x4":
		return RackTopology(4, 4, 8, 2<<20, 4<<20, simtime.Ms(2), nil, "rack-local")
	case "rack8x16":
		return RackTopology(8, 16, 4, 8<<20, 32<<20, simtime.Ms(1), nil, "spread")
	case "tiers3x8":
		return RackTopology(3, 8, 4, 4<<20, 16<<20, simtime.Ms(1), []float64{1.3, 1.0, 0.7}, "spread")
	default:
		panic(fmt.Sprintf("bench: unknown topology %q (known: %s)", name, strings.Join(Topologies(), ", ")))
	}
}

func init() {
	Register(Definition{Name: "rack-skew",
		Description: "custom job packed onto one of 4 racks; scale-out lands rack-local vs cross-rack",
		Layout:      "4 racks × 4 nodes, 2 MB/s NICs, shared 4 MB/s uplinks",
		New:         RackSkewScenario})
	Register(Definition{Name: "bigcluster-128",
		Description: "custom job at 256→320 instances on 128 nodes — the production-scale stress",
		Layout:      "8 racks × 16 nodes, 8 MB/s NICs, shared 32 MB/s uplinks",
		New:         BigCluster128Scenario})
	Register(Definition{Name: "hetero-tiers",
		Description: "three hardware tiers (1.3×/1.0×/0.7×); the slow tier gates scale-out and scale-back",
		Layout:      "3 racks × 8 nodes, tiered speeds",
		New:         HeteroTiersScenario})
}

// RackSkewScenario runs the custom job with its keyed state concentrated on
// one rack (rack-local placement packs all 16 initial instances plus the
// sources onto r0): the 16→24 scale-out either stays on the rack — fast, no
// uplink traffic — or, under a spread override, drags most of the hot state
// across the shared 4 MB/s uplinks. The Zipf skew keeps a few key groups
// dominant, so cross-rack placement also stretches the data plane.
func RackSkewScenario(seed int64) Scenario {
	return Scenario{
		Name: "rack-skew",
		Job: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    16,
			MaxKeyGroups:      128,
			StateBytesPerKey:  1024,
			// Mean utilization 0.5 at 16 instances; the Zipf skew pushes
			// the hottest instances toward ~0.9, which is what the
			// scale-out relieves.
			CostPerRecord:  2 * simtime.Millisecond,
			WatermarkEvery: simtime.Ms(100),
		},
		Traffic: workload.Classic(workload.ClassicSpec{
			Keys:       8000,
			RatePerSec: 2000, // ×2 sources = 4K tps
			// Skew 0.8 keeps instances hot without pinning a single key
			// group past saturation (a group is the atomic migration unit,
			// so scaling could never relieve that).
			Skew:     0.8,
			Duration: shapeHorizon,
			Seed:     seed,
		}),
		ScaleOp:        "agg",
		NewParallelism: 24,
		Warmup:         shapeWarmup,
		Measure:        shapeMeasure,
		Setup:          simtime.Ms(200),
		Cluster:        TopologyByName("rack4x4"),
		Seed:           seed,
	}
}

// BigCluster128Scenario is the production-scale stress: 256 aggregator
// instances spread over 128 nodes on 8 racks, scaling to 320 — two orders of
// magnitude beyond the paper's 4-node testbed, where migration fans out of
// ~128 distinct source NICs at once and the per-node concurrency threshold
// actually binds. Sized so a seeded run finishes in seconds of wall time
// (the CI smoke runs it with a wall-clock budget).
func BigCluster128Scenario(seed int64) Scenario {
	return Scenario{
		Name: "bigcluster-128",
		Job: workload.JobConfig{
			SourceParallelism: 4,
			AggParallelism:    256,
			MaxKeyGroups:      1024,
			StateBytesPerKey:  512,
			// 9.6K tps over 256 instances at 20 ms/record ≈ 0.75
			// utilization: each instance is slow but the fleet is wide.
			CostPerRecord:  20 * simtime.Millisecond,
			WatermarkEvery: simtime.Ms(100),
		},
		Traffic: workload.Classic(workload.ClassicSpec{
			Keys:       30000,
			RatePerSec: 2400, // ×4 sources = 9.6K tps, util ≈ 0.75 at 256 instances
			Skew:       0.5,
			Duration:   simtime.Duration(6+24) * simtime.Second,
			Seed:       seed,
		}),
		ScaleOp:        "agg",
		NewParallelism: 320,
		Warmup:         simtime.Sec(6),
		Measure:        simtime.Sec(24),
		Setup:          simtime.Ms(200),
		Cluster:        TopologyByName("rack8x16"),
		Seed:           seed,
	}
}

// HeteroTiersScenario spreads the custom job across three hardware tiers and
// runs an out-then-back program: scale-out 24→32 lands instances on the slow
// 0.7× tier, which gates re-stabilization; the scale-back 32→24 then has to
// pull that state off again, crossing the tier racks both ways.
func HeteroTiersScenario(seed int64) Scenario {
	return Scenario{
		Name: "hetero-tiers",
		Job: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    24,
			MaxKeyGroups:      256,
			StateBytesPerKey:  768,
			// Mean utilization 0.32–0.6 across the 1.3×/0.7× tiers at 24
			// instances: the slow tier queues visibly but does not
			// saturate, so both waves can re-stabilize.
			CostPerRecord:  2500 * simtime.Microsecond,
			WatermarkEvery: simtime.Ms(100),
		},
		Traffic: workload.Classic(workload.ClassicSpec{
			Keys:       10000,
			RatePerSec: 2000, // ×2 sources = 4K tps
			Skew:       0.8,
			Duration:   shapeHorizon,
			Seed:       seed,
		}),
		ScaleOp: "agg",
		Waves: []Wave{
			{NewParallelism: 32},
			{Gap: simtime.Sec(8), NewParallelism: 24},
		},
		Warmup:  shapeWarmup,
		Measure: shapeMeasure,
		Setup:   simtime.Ms(200),
		Cluster: TopologyByName("tiers3x8"),
		Seed:    seed,
	}
}

// TopologyFigure is the cross-rack-vs-rack-local comparison: the same
// topology scenario, wave program, and seeds deployed end to end under
// rack-local and spread placement for each mechanism. The policy governs the
// *whole* deployment — initial layout and every scale-out wave follow it —
// so the columns compare a topology-aware operator against a topology-blind
// one, warmup included. The rack-local column should show near-zero
// cross-rack migration traffic; the gap between the columns is the price of
// ignoring the rack fabric. Scaling and migration columns sum across all
// launched waves of multi-wave programs.
func (h Harness) TopologyFigure(workloadName string, mechs []string, seeds []int64) (FigureResult, error) {
	if err := checkSeeds("TopologyFigure", seeds); err != nil {
		return FigureResult{}, err
	}
	if len(mechs) == 0 {
		mechs = []string{"drrs", "meces", "megaphone"}
	}
	placements := []string{"rack-local", "spread"}
	var specs []RunSpec
	type cell struct{ placement, mech string }
	var cells []cell
	for _, p := range placements {
		for _, mech := range mechs {
			for _, seed := range seeds {
				sc, err := h.Scenario(workloadName, seed)
				if err != nil {
					return FigureResult{}, err
				}
				specs = append(specs, RunSpec{Scenario: sc.WithPlacement(p), Mechanism: mech})
				cells = append(cells, cell{placement: p, mech: mech})
			}
		}
	}
	results := RunParallel(specs, h.Workers)
	byCell := make(map[cell][]Outcome)
	for i, c := range cells {
		byCell[c] = append(byCell[c], results[i])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Topology (%s) — rack-local vs spread deployment placement\n", workloadName)
	fmt.Fprintf(&b, "%-12s %-12s %16s %16s %14s %14s %16s\n",
		"placement", "mechanism", "Scaling(s)", "Migration(s)", "XRack(MB)", "Moved(MB)", "Peak(ms)")
	rows := make(map[string]Row)
	for _, p := range placements {
		for _, mech := range mechs {
			runs := byCell[cell{placement: p, mech: mech}]
			var dur, mig, xr, mv, peak []float64
			for _, o := range runs {
				dur = append(dur, o.TotalScalingPeriod().Seconds())
				mig = append(mig, o.TotalMigration().Seconds())
				xr = append(xr, float64(o.CrossRackBytes)/(1<<20))
				mv = append(mv, float64(o.TransferredBytes)/(1<<20))
				peak = append(peak, o.PeakIn(o.ScaleAt, o.EndAt))
			}
			r := Row{
				ScalingSec:   NewStat(dur),
				MigrationSec: NewStat(mig),
				PeakMs:       NewStat(peak),
				Faults:       faultStats(runs),
			}
			rows[mech+"@"+p] = r
			fmt.Fprintf(&b, "%-12s %-12s %16s %16s %14.2f %14.2f %16s\n",
				p, mech, r.ScalingSec, r.MigrationSec, NewStat(xr).Mean, NewStat(mv).Mean, r.PeakMs)
		}
	}
	b.WriteString("\nthe placement policy governs the whole deployment (initial layout and\nevery wave); rack-local keeps state transfers off the shared uplinks,\nand XRack is the traffic spread placement pushes through them.\n")
	return FigureResult{Title: "topology/" + workloadName, Text: b.String(), Rows: rows}, nil
}
