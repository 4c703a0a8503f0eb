package bench

import (
	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/nexmark"
	"drrs/internal/simtime"
	"drrs/internal/twitch"
	"drrs/internal/workload"
)

// The paper's experiments, scaled down ~10× in time and ~250× in state so a
// full figure regenerates in seconds of wall time. Shapes (who wins, by what
// factor, where crossovers sit) are the reproduction target; EXPERIMENTS.md
// records paper-vs-measured per figure.
//
// Paper setup (V-B): 300 s warm-up, scaling 8→12 instances, 111/128 key
// groups migrated, 1 Gbps network. Here: 10 s warm-up (hold window 5 s),
// same 8→12 over 128 groups, 4 MB/s migration bandwidth.

// horizon bounds every scenario's generation so post-measure drains
// terminate.
const (
	mainWarmup  = simtime.Duration(10 * simtime.Second)
	mainMeasure = simtime.Duration(40 * simtime.Second)
	mainHorizon = mainWarmup + mainMeasure
)

// Q7Scenario reproduces the NEXMark Q7 setup: high input rate, short
// sliding window (paper: 20K tps, 10 s/500 ms, ~800 MB state).
func Q7Scenario(seed int64) Scenario {
	return Scenario{
		Name: "q7",
		Build: func(seed int64) (*dataflow.Graph, *engine.CollectSink) {
			return nexmark.BuildQ7(nexmark.Q7Config{
				RatePerSec:        2400, // ×2 sources = 4.8K tps, util ≈ 0.9
				SourceParallelism: 2,
				WindowParallelism: 8,
				MaxKeyGroups:      128,
				Auctions:          2000,
				WindowSize:        simtime.Sec(2),
				Slide:             simtime.Ms(100),
				BytesPerEntry:     200,
				// 4K tps over 8 instances at 1.5 ms/record ≈ 0.75 utilization:
				// the operator is a bottleneck, which is why it is scaling.
				CostPerRecord: 1500 * simtime.Microsecond,
				Duration:      mainHorizon,
				Seed:          seed,
			})
		},
		ScaleOp:        "winmax",
		NewParallelism: 12,
		Warmup:         mainWarmup,
		Measure:        mainMeasure,
		Setup:          simtime.Ms(200),
		Seed:           seed,
	}
}

// Q8Scenario reproduces the NEXMark Q8 setup: low rate, long window, the
// evaluation's largest state (paper: 1K tps, 40 s/5 s, ~3 GB). Larger state
// over the same flat 4 MB/s node: migration dominates, as in the paper.
func Q8Scenario(seed int64) Scenario {
	return Scenario{
		Name: "q8",
		Build: func(seed int64) (*dataflow.Graph, *engine.CollectSink) {
			return nexmark.BuildQ8(nexmark.Q8Config{
				PersonsPerSec:   480,
				AuctionsPerSec:  720, // 1.2K tps total, util ≈ 0.9
				JoinParallelism: 8,
				MaxKeyGroups:    128,
				People:          3000,
				WindowSize:      simtime.Sec(8),
				Slide:           simtime.Sec(1),
				BytesPerEntry:   1200,
				// 1K tps over 8 instances at 6 ms/record ≈ 0.75 utilization.
				CostPerRecord: 6 * simtime.Millisecond,
				Duration:      simtime.Duration(12+60) * simtime.Second,
				Seed:          seed,
			})
		},
		ScaleOp:        "join",
		NewParallelism: 12,
		Warmup:         simtime.Sec(12),
		Measure:        simtime.Sec(60),
		Setup:          simtime.Ms(200),
		Seed:           seed,
	}
}

// TwitchScenario reproduces the seven-operator loyalty pipeline (paper:
// ~4M events compressed into 1000 s, ~500 MB of state at scale time).
func TwitchScenario(seed int64) Scenario {
	return Scenario{
		Name: "twitch",
		Build: func(seed int64) (*dataflow.Graph, *engine.CollectSink) {
			return twitch.Build(twitch.Config{
				RatePerSec:         2300, // ×2 sources = 4.6K tps, util ≈ 0.86
				Users:              8000,
				Streamers:          500,
				SourceParallelism:  2,
				LoyaltyParallelism: 8,
				SessionParallelism: 4,
				MaxKeyGroups:       128,
				// 4K tps over 8 loyalty instances at 1.5 ms ≈ 0.75 utilization.
				LoyaltyCost: 1500 * simtime.Microsecond,
				Duration:    mainHorizon,
				Seed:        seed,
			})
		},
		ScaleOp:        twitch.ScalingOperator,
		NewParallelism: 12,
		Warmup:         mainWarmup,
		Measure:        mainMeasure,
		Setup:          simtime.Ms(200),
		Seed:           seed,
	}
}

// The dynamic-shape track: the paper's custom job (Section V-A) under
// phase-programmable load instead of a fixed rate, exercising multi-wave
// scaling programs. Same scaled-down envelope as the main track: 128 key
// groups, 8 initial instances at ~0.75 utilization, ~8 MB of keyed state,
// 4 MB/s migration bandwidth.
const (
	shapeWarmup  = simtime.Duration(10 * simtime.Second)
	shapeMeasure = simtime.Duration(35 * simtime.Second)
	shapeHorizon = shapeWarmup + shapeMeasure
)

// shapedScenario builds one dynamic-shape scenario over the custom job.
func shapedScenario(name string, skew float64, shape workload.Shape, waves []Wave, seed int64) Scenario {
	return Scenario{
		Name: name,
		Job: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    8,
			MaxKeyGroups:      128,
			StateBytesPerKey:  1024,
			// 4K tps over 8 instances at 1.5 ms/record ≈ 0.75 utilization,
			// leaving headroom the shapes deliberately eat into.
			CostPerRecord: 1500 * simtime.Microsecond,
		},
		Traffic: workload.Classic(workload.ClassicSpec{
			Keys:       8000,
			RatePerSec: 2000, // ×2 sources = 4K tps baseline, util ≈ 0.75
			Skew:       skew,
			Shape:      shape,
			Duration:   shapeHorizon,
			Seed:       seed,
		}),
		ScaleOp: "agg",
		Waves:   waves,
		Warmup:  shapeWarmup,
		Measure: shapeMeasure,
		Setup:   simtime.Ms(200),
		Seed:    seed,
	}
}

// FlashCrowdScenario is the multi-wave flagship: a flash crowd multiplies
// load by 1.25× for 8 s right as the warmup ends; the program scales out
// 8→12 into the spike and back 12→8 once it disperses.
func FlashCrowdScenario(seed int64) Scenario {
	return shapedScenario("flash-crowd", 0.8,
		workload.FlashCrowd(shapeWarmup, simtime.Sec(8), 1.25),
		[]Wave{
			{NewParallelism: 12},
			{Gap: simtime.Sec(8), NewParallelism: 8},
		}, seed)
}

// DiurnalScenario drifts offered load between 0.7× and 1.1× on a compressed
// 24 s day/night cycle, scaling out near the peak and back as load falls.
func DiurnalScenario(seed int64) Scenario {
	return shapedScenario("diurnal", 0.5,
		workload.Diurnal(simtime.Sec(24), 0.7, 1.1),
		[]Wave{
			{NewParallelism: 12},
			{Gap: simtime.Sec(10), NewParallelism: 8},
		}, seed)
}

// HotShiftScenario keeps the rate flat but migrates the Zipf hot set by 4%
// of the key space every 2 s, so the key groups that matter at scale time
// are not the ones that matter when migration finishes.
func HotShiftScenario(seed int64) Scenario {
	sc := shapedScenario("hotshift", 1.0,
		workload.HotKeyDrift(simtime.Sec(2), 0.04), nil, seed)
	sc.NewParallelism = 12
	return sc
}

// FlashCrowdReactiveScenario is the closed-loop flagship: a 1.5× flash crowd
// arrives right after warmup with no scripted response — the backlog policy
// sees source queues grow (offered 6K rec/s against ~5.3K capacity at 8
// instances), scales out into the spike, and chases the drain back down once
// the crowd disperses. NewParallelism=12 remains as the scripted fallback so
// `-driver script` runs the paper-style comparison on the same workload.
func FlashCrowdReactiveScenario(seed int64) Scenario {
	sc := shapedScenario("flash-crowd-reactive", 0.8,
		workload.FlashCrowd(shapeWarmup, simtime.Sec(10), 1.5), nil, seed)
	sc.NewParallelism = 12
	sc.Driver = &ControllerDriver{Policy: "backlog", Min: 4, Max: 16}
	return sc
}

// DiurnalAutoscaleScenario drives the compressed day/night ramp with the
// predictive policy: the least-squares trend over recent throughput scales
// out on the rising edge — before queues form — and back down the far side.
func DiurnalAutoscaleScenario(seed int64) Scenario {
	sc := shapedScenario("diurnal-autoscale", 0.5,
		workload.Diurnal(simtime.Sec(24), 0.7, 1.1), nil, seed)
	sc.NewParallelism = 12
	sc.Driver = &ControllerDriver{Policy: "predictive", Min: 4, Max: 16}
	return sc
}

// OscillationGuardScenario stresses the controller's damping: hot-key drift
// at skew 1.0 produces transient per-instance hotspots whose backlog blips
// would flap a naive autoscaler. The threshold policy runs with the default
// debounce and hysteresis; the audit trail records how many decisions
// actually fire.
func OscillationGuardScenario(seed int64) Scenario {
	sc := shapedScenario("oscillation-guard", 1.0,
		workload.HotKeyDrift(simtime.Sec(2), 0.04), nil, seed)
	sc.NewParallelism = 12
	sc.Driver = &ControllerDriver{Policy: "threshold", Min: 4, Max: 16}
	return sc
}

// TwitchReboundScenario replays the Twitch pipeline with an out-then-back
// program: 8→12 at warmup, 12→8 eight seconds after the first wave settles.
func TwitchReboundScenario(seed int64) Scenario {
	sc := TwitchScenario(seed)
	sc.Name = "twitch-rebound"
	sc.Waves = []Wave{
		{NewParallelism: 12},
		{Gap: simtime.Sec(8), NewParallelism: 8},
	}
	return sc
}

// SwarmCluster builds the paper's 4-node heterogeneous Docker Swarm stand-in
// (two Silver-class nodes, one Gold-class, plus the primary), with per-node
// migration bandwidth representing the 1 Gbps fabric, scaled with the state.
func SwarmCluster(migBW float64) func(*simtime.Scheduler) *cluster.Cluster {
	return func(s *simtime.Scheduler) *cluster.Cluster {
		c := cluster.New(s) // "local" = primary Gold 5218
		c.AddNode("silver-1", 0.9, migBW)
		c.AddNode("silver-2", 0.9, migBW)
		c.AddNode("gold-6230", 1.05, migBW)
		return c
	}
}

// SensitivityScenario builds the Fig 15 custom-workload setup: 256 key
// groups, 25→30 instances (229 groups migrate), 4-node cluster. Input rate
// (records/s), total state size (bytes), and Zipf skewness are the swept
// parameters; the paper sweeps 5K–20K tps, 5–30 GB, skew 0–1.5 (state here
// is scaled ~1000×).
func SensitivityScenario(seed int64, ratePerSec float64, totalStateBytes int, skew float64) Scenario {
	const keys = 20000
	perKey := totalStateBytes / keys
	if perKey < 1 {
		perKey = 1
	}
	return Scenario{
		Name: "sensitivity",
		Job: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    25,
			MaxKeyGroups:      256,
			StateBytesPerKey:  perKey,
			// Capacity ≈ 12.5K rec/s at 25 instances, 15K at 30: the
			// swept rates (4–12K) go from comfortable to near-saturated,
			// matching the paper's 5–20K tps sweep against its cluster.
			CostPerRecord: 2 * simtime.Millisecond,
		},
		Traffic: workload.Classic(workload.ClassicSpec{
			Keys:       keys,
			RatePerSec: ratePerSec / 2,
			Skew:       skew,
			Duration:   simtime.Duration(5+25) * simtime.Second,
			Seed:       seed,
		}),
		ScaleOp:        "agg",
		NewParallelism: 30,
		Warmup:         simtime.Sec(5),
		Measure:        simtime.Sec(25),
		Setup:          simtime.Ms(200),
		Cluster: func(s *simtime.Scheduler) *cluster.Cluster {
			c := SwarmCluster(4 << 20)(s)
			for _, op := range []string{"gen", "agg", "sink"} {
				c.PlaceRoundRobin(op, 32)
			}
			return c
		},
		Seed: seed,
	}
}
