// Sensitivity example: one slice of the paper's Fig 15 grid on the simulated
// 4-node cluster — throughput deviation under varying workload skew for
// DRRS, Megaphone, and Meces at a fixed rate and state size.
package main

import (
	"fmt"
	"time"

	"drrs/internal/bench"
)

func main() {
	const (
		rate       = 8000.0   // records/s
		stateBytes = 15 << 20 // ~15 MB total keyed state (paper: 15 GB, scaled ×1000)
	)
	skews := []float64{0, 0.5, 1.0, 1.5}

	fmt.Println("Sensitivity slice (Fig 15): throughput deviation vs workload skew")
	fmt.Printf("rate=%.0f rec/s, state=%dMB, 25→30 instances over 256 key groups, 4-node cluster\n\n",
		rate, stateBytes>>20)
	fmt.Printf("%-12s", "skew")
	for _, s := range skews {
		fmt.Printf(" %10.1f", s)
	}
	fmt.Println()

	for _, mech := range []string{"drrs", "megaphone", "meces"} {
		t0 := time.Now() //lint:allow nowallclock wall-clock report column; measured around a finished run
		fmt.Printf("%-12s", mech)
		pts, _, _ := bench.Harness{}.Fig15(1, []float64{rate}, []int{stateBytes}, skews, []string{mech}) // no overrides, so no error
		for _, s := range skews {
			for _, p := range pts {
				if p.Skew == s {
					fmt.Printf(" %10.0f", p.Deviation)
				}
			}
		}
		fmt.Printf("   (wall %v)\n", time.Since(t0).Round(time.Millisecond)) //lint:allow nowallclock wall-clock report column; measured around a finished run
	}
	fmt.Println("\nLower is better. Expected shape: deviation grows with skew for every")
	fmt.Println("mechanism; DRRS stays lowest across the row (paper Fig 15).")
}
