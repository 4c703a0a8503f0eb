package faults

import (
	"sort"

	"drrs/internal/simtime"
)

// GenConfig names what Generate may fault. The schedule's shape (plan size,
// onset window, restart and heal windows) is fixed by the constants below,
// so a (seed, targets) pair alone determines a plan.
type GenConfig struct {
	// Nodes are crash/straggle targets; Racks are uplink targets. An empty
	// list disables the kinds that need it.
	Nodes []string
	Racks []string
	// Retries passes through to the generated Plan's TransferRetries.
	Retries int
}

const (
	// minFaults..maxFaults bounds the plan size.
	minFaults = 1
	maxFaults = 3
	// Every onset lands in [onset, onset+window): inside the measured phase
	// of the standard scenario shape.
	onset  = 10 * simtime.Second
	window = 10 * simtime.Second
	// restartProb is the probability a generated crash schedules a restart;
	// restarts land in [restartMin, restartMax].
	restartProb = 0.75
	restartMin  = 2 * simtime.Second
	restartMax  = 8 * simtime.Second
	// healMin..healMax bounds straggle/uplink heal windows.
	healMin = 3 * simtime.Second
	healMax = 12 * simtime.Second
	// partitionProb is the probability a generated uplink fault partitions
	// the rack outright instead of degrading it.
	partitionProb = 0.5
)

// Generate draws a randomized fault schedule from rng — the chaos search's
// fuzzer. Every choice (count, kinds, targets, timings, heal windows) comes
// from the one stream in a fixed order, so the (seed, config) pair fully
// determines the plan; times are millisecond-quantized and factors and
// bandwidths come from small menus, which keeps generated plans readable and
// shrinker-friendly. Plans carry no Jitter: the randomness already happened
// here, and a repro must replay exactly.
func Generate(rng *simtime.RNG, cfg GenConfig) Plan {
	plan := Plan{TransferRetries: cfg.Retries}
	// Each kind whose targets exist is equally likely.
	kinds := []Kind{Crash, Straggle, Uplink}
	if len(cfg.Nodes) == 0 {
		kinds = kinds[2:]
	}
	if len(cfg.Racks) == 0 {
		kinds = kinds[:len(kinds)-1]
	}
	if len(kinds) == 0 {
		return plan // no targets to fault
	}
	n := minFaults + rng.IntN(maxFaults-minFaults+1)
	for i := 0; i < n; i++ {
		f := Fault{At: onset + quantized(rng, window)}
		switch f.Kind = kinds[rng.IntN(len(kinds))]; f.Kind {
		case Crash:
			f.Node = cfg.Nodes[rng.IntN(len(cfg.Nodes))]
			if rng.Float64() < restartProb {
				f.Restart = durRange(rng, restartMin, restartMax)
			}
		case Straggle:
			f.Node = cfg.Nodes[rng.IntN(len(cfg.Nodes))]
			f.Factor = 0.2 + float64(0.1*float64(rng.IntN(5))) // 0.2 .. 0.6
			f.Heal = durRange(rng, healMin, healMax)
		case Uplink:
			f.Rack = cfg.Racks[rng.IntN(len(cfg.Racks))]
			if rng.Float64() >= partitionProb {
				f.Bandwidth = float64(int64(256<<10) << rng.IntN(4)) // 256KB..2MB/s
			}
			f.Heal = durRange(rng, healMin, healMax)
		}
		plan.Faults = append(plan.Faults, f)
	}
	sort.SliceStable(plan.Faults, func(i, j int) bool { return plan.Faults[i].At < plan.Faults[j].At })
	return plan
}

// quantized draws a millisecond-quantized offset in [0, span).
func quantized(rng *simtime.RNG, span simtime.Duration) simtime.Duration {
	ms := int64(span / simtime.Millisecond)
	if ms <= 0 {
		return 0
	}
	return simtime.Duration(rng.Int64N(ms)) * simtime.Millisecond
}

// durRange draws a millisecond-quantized duration in [min, max].
func durRange(rng *simtime.RNG, min, max simtime.Duration) simtime.Duration {
	return min + quantized(rng, max-min+simtime.Millisecond)
}
