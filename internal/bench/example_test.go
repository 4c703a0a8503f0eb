package bench_test

import (
	"fmt"

	"drrs/internal/bench"
	"drrs/internal/cluster"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// Example_control: the reactive control plane, end to end. Nothing in this
// scenario scripts *when* to scale — a flash crowd multiplies the custom
// job's load by 1.5× for ten seconds, and the backlog policy, sampling the
// live run every 500 ms, decides on its own when to scale out, when the
// in-flight operation is too slow and must be superseded (the paper's
// concurrent-execution rule 1, re-planned via PlanFromPlacement so migrated
// key groups never move twice), and when to scale back as the crowd
// disperses.
//
// The same closed loop runs under three mechanisms. Because the policy
// reacts to what the mechanism actually delivers, the mechanisms see
// *different* decision sequences: a fast mechanism absorbs the spike with a
// couple of decisions; a slow one lets backlog build, provoking escalation
// and supersessions.
func Example_control() {
	sc := bench.FlashCrowdReactiveScenario(1)
	fmt.Printf("Flash-crowd-reactive scenario — driving %s, warmup %v, measure %v\n",
		sc.ProgramString(), sc.Warmup, sc.Measure)
	fmt.Println("(the controller samples every 500 ms, debounces decisions 2 s apart,")
	fmt.Println(" and may rescale anywhere between 4 and 16 instances)")
	fmt.Println()

	for _, mech := range []string{"drrs", "meces", "megaphone"} {
		o := sc.RunWith(func() scaling.Mechanism { return bench.Mechanisms(mech) })
		fmt.Printf("%s  (peak %.1f ms, avg %.1f ms after the first decision)\n",
			mech, o.PeakIn(o.ScaleAt, o.EndAt), o.AvgIn(o.ScaleAt, o.EndAt))
		fmt.Print(bench.FormatDecisions(o))
		for i, w := range o.Waves {
			status := "completed"
			if !w.Done {
				status = "STILL IN FLIGHT AT HORIZON"
			}
			fmt.Printf("  op %d %d→%d at %v: %s, migration %v, suspension %v\n",
				i, w.FromParallelism, w.Wave.NewParallelism, w.ScaleAt, status,
				w.Scale.MigrationDuration(), w.Scale.CumulativeSuspension())
		}
		fmt.Printf("  timeline %s\n\n", bench.Sparkline(o, simtime.Second, o.ScaleAt, o.EndAt))
	}

	fmt.Println("DRRS absorbs the spike in two decisions and settles back down. Meces")
	fmt.Println("lets the backlog build, so the policy escalates further before")
	fmt.Println("recovering. Megaphone's announced rounds cannot be cancelled: every")
	fmt.Println("mid-spike decision supersedes a still-running operation, and the run")
	fmt.Println("ends overprovisioned — a ranking no scripted wave program can show.")

	// Output:
	// Flash-crowd-reactive scenario — driving reactive/backlog, warmup 10000.000ms, measure 35000.000ms
	// (the controller samples every 500 ms, debounces decisions 2 s apart,
	//  and may rescale anywhere between 4 and 16 instances)
	//
	// drrs  (peak 698.6 ms, avg 24.8 ms after the first decision)
	//   #0  10.000s backlog  8→9  done at 11.013s        demand 4007 rec/s (backlog 0) needs 9 instances
	//   #1  12.000s backlog  9→13 done at 14.169s        demand 6015 rec/s (backlog 0) needs 13 instances
	//   #2  22.500s backlog 13→11 done at 24.039s        demand 3996 rec/s sustained 4 samples below 13 instances
	//   #3  24.500s backlog 11→9  done at 26.060s        demand 4002 rec/s sustained 4 samples below 11 instances
	//   op 0 8→9 at 10.000s: completed, migration 1013.192ms, suspension 343.828ms
	//   op 1 9→13 at 12.000s: completed, migration 2168.556ms, suspension 1391.169ms
	//   op 2 13→11 at 22.500s: completed, migration 1539.315ms, suspension 1410.348ms
	//   op 3 11→9 at 24.500s: completed, migration 1560.216ms, suspension 1186.228ms
	//   timeline ▃▆█▄▅▇▁▃▁▁▁▁▁▁▁▂▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁  (max 144ms)
	//
	// meces  (peak 11991.6 ms, avg 4751.8 ms after the first decision)
	//   #0  10.000s backlog  8→9  done at 10.936s        demand 4007 rec/s (backlog 0) needs 9 instances
	//   #1  12.000s backlog  9→13 done at 19.709s        demand 6017 rec/s (backlog 1379) needs 13 instances
	//   #2  14.000s backlog 13→14 dropped                demand 6730 rec/s (backlog 11809) needs 14 instances [superseded in-flight op]
	//   #3  16.000s backlog 14→16 done at 24.631s        demand 11948 rec/s (backlog 22101) needs 24 instances [superseded in-flight op]
	//   #4  41.500s backlog 16→13 done at 43.334s        demand 4002 rec/s sustained 4 samples below 16 instances
	//   #5  43.500s backlog 13→9  done at 48.772s        demand 3917 rec/s sustained 4 samples below 13 instances
	//   op 0 8→9 at 10.000s: completed, migration 935.966ms, suspension 3663.380ms
	//   op 1 9→13 at 12.000s: completed, migration 7709.204ms, suspension 34009.368ms
	//   op 2 14→16 at 19.709s: completed, migration 4922.025ms, suspension 13589.446ms
	//   op 3 16→13 at 41.500s: completed, migration 1834.129ms, suspension 10215.071ms
	//   op 4 13→9 at 43.500s: completed, migration 5271.936ms, suspension 24007.612ms
	//   timeline ▁▁▁▁▃▂▃▄▅▆▆▇▇█▇▇▆▆▅▅▄▄▃▂▂▁▁▁▁▁▁▁▁▂▅▅  (max 11026ms)
	//
	// megaphone  (peak 7524.2 ms, avg 4864.4 ms after the first decision)
	//   #0  10.000s backlog  8→9  done at 20.510s        demand 4007 rec/s (backlog 0) needs 9 instances
	//   #1  12.000s backlog  9→13 dropped                demand 6016 rec/s (backlog 971) needs 13 instances [superseded in-flight op]
	//   #2  14.000s backlog 13→14 dropped                demand 6512 rec/s (backlog 5059) needs 14 instances [superseded in-flight op]
	//   #3  16.000s backlog 14→16 done at 44.954s        demand 8560 rec/s (backlog 10384) needs 18 instances [superseded in-flight op]
	//   op 0 8→9 at 10.000s: completed, migration 10509.766ms, suspension 5230.027ms
	//   op 1 14→16 at 20.510s: completed, migration 24444.516ms, suspension 23539.301ms
	//   timeline ▁▁▁▂▂▂▃▃▄▄▄▄▅▅▅▅▆▆▆▆▆▆▇▇▇▇▇▇▇▇▇█▇▇▅▄▃▃  (max 7331ms)
	//
	// DRRS absorbs the spike in two decisions and settles back down. Meces
	// lets the backlog build, so the policy escalates further before
	// recovering. Megaphone's announced rounds cannot be cancelled: every
	// mid-spike decision supersedes a still-running operation, and the run
	// ends overprovisioned — a ranking no scripted wave program can show.
}

// Example_topology: the rack-aware deployment substrate and the placement
// policies that drive it.
//
// The paper's sensitivity analysis stops at a 4-node Swarm cluster with a
// flat network. This walkthrough builds a 4-rack topology by hand, shows how
// transfer and data-plane latency follow the source→destination path, and
// then runs the rack-skew scenario twice — scale-out placed rack-local vs
// spread across the cluster — to measure what crossing the shared rack
// uplinks costs.
func Example_topology() {
	// --- 1. A topology by hand -------------------------------------------
	// Two racks, two nodes each. Nodes expose 2 MB/s migration NICs; each
	// rack shares a 4 MB/s uplink with 2 ms of latency per hop. Every
	// cross-rack transfer serializes on its source rack's uplink, whichever
	// node it leaves from.
	s := simtime.NewScheduler()
	c := cluster.New(s)
	for _, r := range []string{"r0", "r1"} {
		c.AddRack(r, 4<<20, simtime.Ms(2))
		for n := 0; n < 2; n++ {
			c.AddNodeOnRack(r, fmt.Sprintf("%sn%d", r, n), 1.0, 2<<20).Slots = 4
		}
	}
	ep := func(i int) netsim.Endpoint { return netsim.Endpoint{Op: "agg", Index: i} }
	c.Place(ep(0), "r0n0")
	c.Place(ep(1), "r0n1") // same rack as 0
	c.Place(ep(2), "r1n0") // other rack

	base := simtime.Ms(0.5)
	fmt.Println("link latency follows the topology path:")
	fmt.Printf("  same node  : %v\n", c.LinkLatency(ep(0), ep(0), base))
	fmt.Printf("  same rack  : %v\n", c.LinkLatency(ep(0), ep(1), base))
	fmt.Printf("  cross rack : %v (base + both uplink hops)\n\n", c.LinkLatency(ep(0), ep(2), base))

	const mb = 1 << 20
	var sameRack, crossRack simtime.Time
	c.Transfer(ep(0), ep(1), 2*mb, func() { sameRack = s.Now() })
	s.Run()
	c.Transfer(ep(0), ep(2), 2*mb, func() { crossRack = s.Now() })
	s.Run()
	fmt.Println("a 2 MB state transfer:")
	fmt.Printf("  within rack r0      : %v (2 MB/s source NIC)\n", simtime.Duration(sameRack))
	fmt.Printf("  r0 → r1 over uplink : %v more (store-and-forward on the shared 4 MB/s uplink)\n",
		crossRack.Sub(sameRack))
	fmt.Printf("  r0 uplink carried   : %d MB\n\n", c.Rack("r0").OutBytes/mb)

	// --- 2. Placement policies -------------------------------------------
	// spread round-robins across all nodes; pack fills slots in node order;
	// rack-local keeps an operator inside the racks it already occupies.
	// Initial deployment and every scale-out wave consult the same policy.
	for _, name := range cluster.PolicyNames() {
		s2 := simtime.NewScheduler()
		c2 := cluster.New(s2)
		c2.Node("local").Unschedulable = true
		for _, r := range []string{"r0", "r1"} {
			c2.AddRack(r, 0, 0)
			for n := 0; n < 2; n++ {
				c2.AddNodeOnRack(r, fmt.Sprintf("%sn%d", r, n), 1.0, 0).Slots = 2
			}
		}
		c2.SetPolicy(cluster.PolicyByName(name))
		c2.PlaceInstances("agg", 0, 4)
		fmt.Printf("%-10s places agg[0..3] on:", name)
		for i := 0; i < 4; i++ {
			fmt.Printf(" %s", c2.NodeOf(netsim.Endpoint{Op: "agg", Index: i}).Name)
		}
		fmt.Println()
	}

	// --- 3. Rack-local vs spread scale-out, measured ---------------------
	// The rack-skew scenario packs the job onto one of four racks; the 16→24
	// scale-out either stays there or drags state across the 4 MB/s uplinks.
	fmt.Println("\nrack-skew scenario, DRRS, scale-out 16→24 (seed 1):")
	for _, placement := range []string{"rack-local", "spread"} {
		sc := bench.RackSkewScenario(1).WithPlacement(placement)
		o := sc.RunWith(func() scaling.Mechanism { return bench.Mechanisms("drrs") })
		w := o.Waves[0]
		fmt.Printf("  %-10s migration %8.0f ms  cross-rack %5.2f of %.2f MB  peak %6.1f ms\n",
			placement, w.Scale.MigrationDuration().Millis(),
			float64(o.CrossRackBytes)/mb, float64(o.TransferredBytes)/mb,
			o.PeakIn(o.ScaleAt, o.EndAt))
	}
	fmt.Println("\nrack-local scale-out never touches the uplinks; spread pays for")
	fmt.Println("every migrated group twice — the source NIC and the shared uplink.")

	// Output:
	// link latency follows the topology path:
	//   same node  : 0.500ms
	//   same rack  : 0.500ms
	//   cross rack : 4.500ms (base + both uplink hops)
	//
	// a 2 MB state transfer:
	//   within rack r0      : 1000.500ms (2 MB/s source NIC)
	//   r0 → r1 over uplink : 1504.500ms more (store-and-forward on the shared 4 MB/s uplink)
	//   r0 uplink carried   : 2 MB
	//
	// spread     places agg[0..3] on: r0n0 r0n0 r0n1 r1n0
	// pack       places agg[0..3] on: r0n0 r0n0 r0n1 r0n1
	// rack-local places agg[0..3] on: r0n0 r0n1 r0n0 r0n1
	//
	// rack-skew scenario, DRRS, scale-out 16→24 (seed 1):
	//   rack-local migration     1216 ms  cross-rack  0.00 of 5.11 MB  peak   12.9 ms
	//   spread     migration      713 ms  cross-rack  3.95 of 5.06 MB  peak  132.1 ms
	//
	// rack-local scale-out never touches the uplinks; spread pays for
	// every migrated group twice — the source NIC and the shared uplink.
}
