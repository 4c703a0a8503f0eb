// Package workload builds the paper's configurable custom job (Section V-A):
// a generator → keyed aggregator → sink pipeline with adjustable input rate,
// per-key state size, and Zipf workload skewness. The paper uses it for the
// cluster sensitivity analysis (Fig 15) because the dominant scaling overhead
// involves only the scaling operator and its predecessors.
//
// The API separates what runs from what arrives:
//
//   - JobConfig fixes the topology side — parallelism, key groups, state
//     size, processing cost. (The watermark cadence is the constant
//     watermarkEvery.)
//   - Traffic produces the arrival stream — Classic (the original
//     single-generator Zipf load), Live (multi-client cohort Specs), or
//     Replay (a recorded Trace).
//   - BuildJob(job, traffic) assembles the graph.
//
// Neither half defaults anything: JobConfig and ClassicSpec fields are used
// verbatim and structurally impossible values panic. DefaultJob is the
// paper's single-machine topology to start from.
package workload

import (
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
)

// JobConfig parameterizes the custom job's topology: everything about the
// pipeline that is independent of the arrival stream. It performs no
// zero-value defaulting — every field is used verbatim, so explicit zeros (a
// free aggregator, stateless keys) are expressible. Start from DefaultJob and
// override.
type JobConfig struct {
	// SourceParallelism and AggParallelism set initial parallelism.
	SourceParallelism int
	AggParallelism    int
	// MaxKeyGroups is the aggregator's key-group count (paper: 128 single
	// machine, 256 cluster).
	MaxKeyGroups int
	// StateBytesPerKey sets per-key state size (total state ≈ keys × this).
	// Zero is honoured: a stateless aggregator.
	StateBytesPerKey int
	// CostPerRecord is the aggregator's processing cost. Zero is honoured: a
	// free aggregator.
	CostPerRecord simtime.Duration
	// EmitUpdates forwards every aggregation update to the sink (needed by
	// correctness tests; benchmarks can disable it to cut message volume).
	EmitUpdates bool
}

// DefaultJob returns the paper's single-machine topology: 1 source, 4
// aggregators over 128 key groups, 1 KiB per key, 100 µs per record.
func DefaultJob() JobConfig {
	return JobConfig{
		SourceParallelism: 1,
		AggParallelism:    4,
		MaxKeyGroups:      128,
		StateBytesPerKey:  1024,
		CostPerRecord:     100 * simtime.Microsecond,
	}
}

// validate panics on structurally impossible jobs. Zeros that are meaningful
// (cost, state size) pass; zeros that would wedge the engine do not.
func (j JobConfig) validate() {
	if j.SourceParallelism <= 0 {
		panic("workload: JobConfig.SourceParallelism must be > 0 (use DefaultJob)")
	}
	if j.AggParallelism <= 0 {
		panic("workload: JobConfig.AggParallelism must be > 0 (use DefaultJob)")
	}
	if j.MaxKeyGroups <= 0 {
		panic("workload: JobConfig.MaxKeyGroups must be > 0 (use DefaultJob)")
	}
	if j.StateBytesPerKey < 0 || j.CostPerRecord < 0 {
		panic("workload: JobConfig state size and record cost cannot be negative")
	}
}

// BuildJob constructs the job graph from a topology and an arrival stream and
// returns it with the sink logic for inspection. Operators are named "gen",
// "agg", "sink". Panics on structurally invalid jobs (see JobConfig).
func BuildJob(job JobConfig, traffic Traffic) (*dataflow.Graph, *engine.CollectSink) {
	job.validate()
	if traffic == nil {
		panic("workload: BuildJob needs a Traffic (Classic, Live, or Replay)")
	}
	sink := engine.NewCollectSink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "gen",
		Parallelism: job.SourceParallelism,
		Source:      driveSource(traffic),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "agg",
		Parallelism:   job.AggParallelism,
		KeyedInput:    true,
		MaxKeyGroups:  job.MaxKeyGroups,
		CostPerRecord: job.CostPerRecord,
		CostJitter:    0.1,
		NewLogic: func() dataflow.Logic {
			return &engine.KeyedReduceLogic{
				StateBytes:  job.StateBytesPerKey,
				EmitUpdates: job.EmitUpdates,
			}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "sink",
		Parallelism: 1,
		NewLogic:    func() dataflow.Logic { return sink },
	})
	g.Connect("gen", "agg", dataflow.ExchangeKeyed)
	g.Connect("agg", "sink", dataflow.ExchangeRebalance)
	return g, sink
}
