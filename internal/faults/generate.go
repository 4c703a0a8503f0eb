package faults

import (
	"sort"

	"drrs/internal/simtime"
)

// GenConfig bounds the fault schedules Generate draws. The zero value of
// every knob falls back to a sensible default, so callers only name the
// targets (Nodes/Racks) and whatever they want to pin.
type GenConfig struct {
	// Nodes are crash/straggle targets; Racks are uplink targets. An empty
	// list disables the kinds that need it.
	Nodes []string
	Racks []string
	// MinFaults..MaxFaults bounds the plan size (defaults 1..3).
	MinFaults int
	MaxFaults int
	// Onset is the earliest fault time; Window is the span after Onset in
	// which every onset lands (defaults 10s and 10s — inside the measured
	// phase of the standard scenario shape).
	Onset  simtime.Duration
	Window simtime.Duration
	// CrashWeight/StraggleWeight/UplinkWeight are relative kind weights
	// (each defaults to 1 when its target list is non-empty).
	CrashWeight    int
	StraggleWeight int
	UplinkWeight   int
	// A crash schedules a restart with probability restartProb; restarts
	// land in [RestartMin, RestartMax] (defaults 2s..8s).
	RestartMin simtime.Duration
	RestartMax simtime.Duration
	// HealMin..HealMax bounds straggle/uplink heal windows (defaults
	// 3s..12s).
	HealMin simtime.Duration
	HealMax simtime.Duration
	// Retries passes through to the generated Plan's TransferRetries.
	Retries int
}

const (
	// restartProb is the probability a generated crash schedules a restart.
	restartProb = 0.75
	// partitionProb is the probability a generated uplink fault partitions
	// the rack outright instead of degrading it.
	partitionProb = 0.5
)

func (cfg *GenConfig) fillDefaults() {
	if cfg.MinFaults <= 0 {
		cfg.MinFaults = 1
	}
	if cfg.MaxFaults < cfg.MinFaults {
		cfg.MaxFaults = cfg.MinFaults + 2
	}
	if cfg.Onset <= 0 {
		cfg.Onset = 10 * simtime.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * simtime.Second
	}
	if len(cfg.Nodes) > 0 {
		if cfg.CrashWeight <= 0 {
			cfg.CrashWeight = 1
		}
		if cfg.StraggleWeight <= 0 {
			cfg.StraggleWeight = 1
		}
	} else {
		cfg.CrashWeight, cfg.StraggleWeight = 0, 0
	}
	if len(cfg.Racks) > 0 {
		if cfg.UplinkWeight <= 0 {
			cfg.UplinkWeight = 1
		}
	} else {
		cfg.UplinkWeight = 0
	}
	if cfg.RestartMin <= 0 {
		cfg.RestartMin = 2 * simtime.Second
	}
	if cfg.RestartMax < cfg.RestartMin {
		cfg.RestartMax = cfg.RestartMin + 6*simtime.Second
	}
	if cfg.HealMin <= 0 {
		cfg.HealMin = 3 * simtime.Second
	}
	if cfg.HealMax < cfg.HealMin {
		cfg.HealMax = cfg.HealMin + 9*simtime.Second
	}
}

// Generate draws a randomized fault schedule from rng — the chaos search's
// fuzzer. Every choice (count, kinds, targets, timings, heal windows) comes
// from the one stream in a fixed order, so the (seed, config) pair fully
// determines the plan; times are millisecond-quantized and factors and
// bandwidths come from small menus, which keeps generated plans readable and
// shrinker-friendly. Plans carry no Jitter: the randomness already happened
// here, and a repro must replay exactly.
func Generate(rng *simtime.RNG, cfg GenConfig) Plan {
	cfg.fillDefaults()
	plan := Plan{TransferRetries: cfg.Retries}
	total := cfg.CrashWeight + cfg.StraggleWeight + cfg.UplinkWeight
	if total == 0 {
		return plan // no targets to fault
	}
	n := cfg.MinFaults + rng.IntN(cfg.MaxFaults-cfg.MinFaults+1)
	for i := 0; i < n; i++ {
		f := Fault{At: cfg.Onset + quantized(rng, cfg.Window)}
		switch w := rng.IntN(total); {
		case w < cfg.CrashWeight:
			f.Kind = Crash
			f.Node = cfg.Nodes[rng.IntN(len(cfg.Nodes))]
			if rng.Float64() < restartProb {
				f.Restart = durRange(rng, cfg.RestartMin, cfg.RestartMax)
			}
		case w < cfg.CrashWeight+cfg.StraggleWeight:
			f.Kind = Straggle
			f.Node = cfg.Nodes[rng.IntN(len(cfg.Nodes))]
			f.Factor = 0.2 + 0.1*float64(rng.IntN(5)) // 0.2 .. 0.6
			f.Heal = durRange(rng, cfg.HealMin, cfg.HealMax)
		default:
			f.Kind = Uplink
			f.Rack = cfg.Racks[rng.IntN(len(cfg.Racks))]
			if rng.Float64() >= partitionProb {
				f.Bandwidth = float64(int64(256<<10) << rng.IntN(4)) // 256KB..2MB/s
			}
			f.Heal = durRange(rng, cfg.HealMin, cfg.HealMax)
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
